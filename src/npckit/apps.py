"""Stock applications, expressed as configuration.

Every application here is ports and filters over the same small behavior
set; none of them needed new code.  A preset produces ready-to-run server
configs (for npcd) and a demo scenario (for the sim), so the exact same
wiring is what gets tested and what gets deployed.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Callable

DOCS_ONLY = ('(event.type == "Insert" or event.type == "Remove") '
             'and entry.kind == "document"')


@dataclass(frozen=True)
class Preset:
    name: str
    summary: str
    build: Callable[[dict], list]
    demo: Callable[[dict], dict]


def _admin(name="admin", **extra):
    return {"name": name, "kind": "port", "behavior": "admin", **extra}


def _doc(name, text, **meta):
    return {"name": name, "kind": "document", "content_text": text,
            "meta": {k: str(v) for k, v in meta.items()}}


def _put(server, name, text, **meta):
    ev = {"kind": "Insert", "origin_port": "@node", "seq": 0, "created_at": 0,
          "entry": {"name": name, "kind": "document",
                    "meta": {k: str(v) for k, v in meta.items()},
                    "content_b64": base64.b64encode(text.encode()).decode(),
                    "media_type": "text/plain"}}
    return {"do": "post", "server": server, "event": ev}


# -- mirror: two nodes that replicate each other's documents -----------------------

def mirror_build(params: dict) -> list:
    hosts = params.get("hosts", ["a", "b"])
    ports = [int(p) for p in params.get("ports", [7070, 7070])]
    assert len(hosts) == 2 and len(ports) == 2

    def side(me: str, my_port: int, other: str, other_port: int) -> dict:
        return {
            "host": me, "npc_tcp_port": my_port,
            "root": {"entries": [
                _admin(),
                # channel endpoint: only document traffic is admitted
                {"name": "in", "kind": "port", "behavior": "admin",
                 "output_filter": DOCS_ONLY},
                # pushes every local document change to the companion,
                # except what the companion itself sent us
                {"name": "fwd", "kind": "port", "behavior": "forwarder",
                 "input_filter": 'event.port != "in"',
                 "config": {"target": f"npc://{other}:{other_port}/root/in",
                            "flavor": "event"}},
            ]},
        }

    return [side(hosts[0], ports[0], hosts[1], ports[1]),
            side(hosts[1], ports[1], hosts[0], ports[0])]


def mirror_demo(params: dict) -> dict:
    hosts = params.get("hosts", ["a", "b"])
    return {"servers": mirror_build(params), "stimuli": [
        _put(hosts[0], "left-note", "written on the left"),
        _put(hosts[1], "right-note", "written on the right"),
        {"do": "quiesce"},
    ]}


# -- doc-server: documents over HTTP ------------------------------------------------

def doc_server_build(params: dict) -> list:
    host = params.get("host", "web")
    return [{
        "host": host, "npc_tcp_port": 7070, "http_port": 8080,
        "root": {"entries": [
            _admin(),
            _doc("welcome", params.get("welcome", "it works")),
        ]},
    }]


def doc_server_demo(params: dict) -> dict:
    host = params.get("host", "web")
    return {"servers": doc_server_build(params), "stimuli": [
        {"do": "http", "server": host, "method": "GET", "path": "/root/welcome"},
        {"do": "http", "server": host, "method": "PUT", "path": "/root/posted",
         "body_text": "fresh content", "content_type": "text/plain"},
        {"do": "http", "server": host, "method": "GET", "path": "/root/posted"},
        {"do": "http", "server": host, "method": "DELETE", "path": "/root/posted"},
        {"do": "http", "server": host, "method": "GET", "path": "/root/posted"},
    ]}


# -- retrieval: a cache that pulls from an origin -----------------------------------

def retrieval_build(params: dict) -> list:
    every = str(params.get("every", 10))
    return [
        {"host": "origin", "npc_tcp_port": 7070,
         "root": {"entries": [
             _admin(),
             # read-only replication endpoint: serves pulls, nothing else
             {"name": "out", "kind": "port", "behavior": "forwarder",
              "input_filter": DOCS_ONLY},
             _doc("seed", "already here"),
         ]}},
        {"host": "cache", "npc_tcp_port": 7070,
         "root": {"entries": [
             _admin(),
             {"name": "pull", "kind": "port", "behavior": "puller",
              "config": {"source": "npc://origin:7070/root/out",
                         "every": every, "flavor": "event"}},
         ]}},
    ]


def retrieval_demo(params: dict) -> dict:
    every = params.get("every", 10)
    return {"servers": retrieval_build(params), "stimuli": [
        _put("origin", "fresh", "made after boot"),
        {"do": "tick", "dt": every},
    ]}


# -- mediator: fan a query out to external sources ----------------------------------

def mediator_build(params: dict) -> list:
    return [{
        "host": "hub", "npc_tcp_port": 7070,
        "stubs": {
            "archive": {"type": "repo", "documents": [
                _doc("alpha", "alpha from the archive"),
                _doc("shared", "two sources hold this"),
            ]},
            "library": {"type": "repo", "documents": [
                _doc("beta", "beta from the library"),
                _doc("shared", "two sources hold this"),
            ]},
            "annex": {"type": "repo", "documents": [
                _doc("gamma", "gamma from the annex"),
            ]},
        },
        "root": {"entries": [
            _admin(config={"query_mode": "mediated"}),
            {"name": "t-archive", "kind": "port", "behavior": "translator",
             "config": {"accept": "*", "source": "archive"}},
            {"name": "t-library", "kind": "port", "behavior": "translator",
             "config": {"accept": "*", "source": "library"}},
            {"name": "t-annex", "kind": "port", "behavior": "translator",
             "config": {"accept": "*", "source": "annex"}},
            # understands only queries nobody sends, so it always declines
            {"name": "t-picky", "kind": "port", "behavior": "translator",
             "config": {"accept": "special:*", "source": "archive"}},
        ]},
    }]


def mediator_demo(params: dict) -> dict:
    return {"servers": mediator_build(params), "stimuli": [
        {"do": "connect", "id": "c1", "target": "npc://hub:7070/root/admin"},
        {"do": "send", "conn": "c1",
         "msg": {"kind": "cmd", "op": "query", "query": "true"}},
        {"do": "close", "conn": "c1"},
    ]}


# -- alerting: documents become mail ------------------------------------------------

def alerting_build(params: dict) -> list:
    return [{
        "host": "alerts", "npc_tcp_port": 7070,
        "stubs": {"mail": {"type": "mail"}},
        "root": {"entries": [
            _admin(),
            {"name": "on-incident", "kind": "port", "behavior": "subscriber",
             "input_filter": 'meta.severity == "high"',
             "config": {"address": "oncall@example.net", "stub": "mail"}},
        ]},
    }]


def alerting_demo(params: dict) -> dict:
    return {"servers": alerting_build(params), "stimuli": [
        _put("alerts", "disk-full", "disk is full", severity="high"),
        _put("alerts", "fyi", "routine notice", severity="low"),
        {"do": "quiesce"},
    ]}


# -- mailing-list: self-service subscriptions ----------------------------------------

def mailing_list_build(params: dict) -> list:
    return [{
        "host": "list", "npc_tcp_port": 7070,
        "stubs": {"mail": {"type": "mail"}},
        "root": {"entries": [
            _admin(),
            # turns request documents into member ports and back
            {"name": "manager", "kind": "port", "behavior": "subscriber-manager",
             "config": {"stub": "mail",
                        "topic_filter": 'event.type == "Insert" and '
                                        'entry.kind == "document" and '
                                        'meta.request == ""'}},
            # channel endpoint for postings and requests
            {"name": "submit", "kind": "port", "behavior": "subscriber-manager",
             "config": {"role": "submit"},
             "output_filter": DOCS_ONLY},
        ]},
    }]


def mailing_list_demo(params: dict) -> dict:
    return {"servers": mailing_list_build(params), "stimuli": [
        _put("list", "req-1", "", request="subscribe", address="ada@example.net"),
        _put("list", "msg-1", "first posting"),
        {"do": "quiesce"},
    ]}


# -- classifier: one feed fanned out into per-topic subnodes -------------------------

def classifier_build(params: dict) -> list:
    topics = params.get("topics", ["sports", "politics"])
    entries = [_admin()]
    for topic in topics:
        entries.append({"name": topic, "kind": "node", "entries": [
            {"name": "in", "kind": "port", "behavior": "admin",
             "output_filter": DOCS_ONLY}]})
        entries.append({
            "name": f"route-{topic}", "kind": "port", "behavior": "classifier",
            "input_filter": f'meta.topic == "{topic}"',
            "config": {"target": f"npc://feed:7070/root/{topic}/in",
                       "flavor": "document"}})
    return [{"host": "feed", "npc_tcp_port": 7070,
             "root": {"entries": entries}}]


def classifier_demo(params: dict) -> dict:
    return {"servers": classifier_build(params), "stimuli": [
        _put("feed", "match-report", "final score", topic="sports"),
        _put("feed", "debate", "long speeches", topic="politics"),
        _put("feed", "misc", "no topic at all"),
        {"do": "quiesce"},
    ]}


PRESETS: dict[str, Preset] = {p.name: p for p in [
    Preset("mirror", "two nodes replicating documents both ways",
           mirror_build, mirror_demo),
    Preset("doc-server", "documents served and edited over HTTP",
           doc_server_build, doc_server_demo),
    Preset("retrieval", "a cache node pulling from an origin on a timer",
           retrieval_build, retrieval_demo),
    Preset("mediator", "queries fanned out to external sources via translators",
           mediator_build, mediator_demo),
    Preset("alerting", "matching documents forwarded to an address as mail",
           alerting_build, alerting_demo),
    Preset("mailing-list", "subscribe/unsubscribe by posting request documents",
           mailing_list_build, mailing_list_demo),
    Preset("classifier", "a feed sorted into per-topic subnodes",
           classifier_build, classifier_demo),
]}


class UnknownPreset(KeyError):  # a name that PRESETS does not hold
    __str__ = Exception.__str__  # the message, without KeyError's quotes


def preset(name: str) -> Preset:
    """The preset called ``name``: the one lookup of a preset by name."""
    if name not in PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; have {', '.join(sorted(PRESETS))}")
    return PRESETS[name]


def build_preset(name: str, params: dict | None = None) -> list:
    return preset(name).build(params or {})


def demo_scenario(name: str, params: dict | None = None) -> dict:
    return preset(name).demo(params or {})
