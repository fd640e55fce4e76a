"""Command line front ends: npcd runs servers, npc talks to them.

npc speaks the native protocol over TCP, one connection per invocation.
Exit codes: 0 success, 1 not found (or refused), 2 usage (any bad input), 3 transport.
"""

from __future__ import annotations

import argparse
import base64
import json
import signal
import socket
import sys
import time

from .apps import UnknownPreset, build_preset, demo_scenario
from .model import UrlError, parse_url
from .wire import WireError, encode_frame, read_frame

OK, NOT_FOUND, USAGE, TRANSPORT = 0, 1, 2, 3


class TransportError(Exception):
    pass


class NpcClient:
    """One synchronous connection to a port."""

    def __init__(self, target: str, timeout: float = 10.0):
        try:
            url = parse_url(target)
        except UrlError as e:
            raise TransportError(f"bad url: {e}")
        self.url = url
        try:
            self.sock = socket.create_connection((url.host, url.tcp_port),
                                                 timeout=timeout)
        except OSError as e:
            raise TransportError(f"cannot reach {url.host}:{url.tcp_port}: {e}")
        self.send({"kind": "hello", "target": target})
        first = self.recv()
        if first is None or first.get("kind") != "hello":
            code = (first or {}).get("code", "hangup")
            msg = (first or {}).get("message", "no hello reply")
            self.close()
            raise TransportError(f"refused ({code}): {msg}")
        self.node_url = first.get("node", "")

    def send(self, msg: dict) -> None:
        try:
            self.sock.sendall(encode_frame(msg))
        except OSError as e:
            raise TransportError(f"send failed: {e}")

    def recv(self) -> dict | None:
        try:
            msg = read_frame(self.sock.recv)
        except (WireError, OSError) as e:
            raise TransportError(f"recv failed: {e}")
        if msg is not None and msg.get("kind") == "bye":
            return None
        return msg

    def roundtrip(self, msg: dict) -> dict:
        """Send one frame and return the terminal ack/error, letting any
        streamed event frames pass through ``collect``."""
        self.send(msg)
        while True:
            reply = self.recv()
            if reply is None:
                raise TransportError("connection closed before a reply")
            if reply.get("kind") in ("ack", "error"):
                return reply
            self.collect(reply)

    def collect(self, frame: dict) -> None:
        pass

    def close(self) -> None:
        try:
            self.sock.sendall(encode_frame({"kind": "bye"}))
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def _admin_of(entry_url_text: str) -> tuple[str, str]:
    """Split an entry URL into (management port URL, entry name)."""
    url = parse_url(entry_url_text)
    if len(url.path) < 2:
        raise UrlError(f"{entry_url_text} does not name an entry inside a node")
    admin = url.parent().child("admin")
    return admin.text(), url.name


class Refused(Exception):
    """An error reply: npc reports it and exits NOT_FOUND."""


def _ask(target: str, msg: dict, collect=None) -> dict:
    """One round trip with the port at ``target``: connect, send ``msg``,
    close, and return the ack; the frames streamed before it go to
    ``collect``.  An error reply raises ``Refused``."""
    client = NpcClient(target)
    if collect is not None:
        client.collect = collect
    try:
        reply = client.roundtrip(msg)
    finally:
        client.close()
    if reply.get("kind") == "error":
        raise Refused(f"error ({reply.get('code')}): {reply.get('message', '')}")
    return reply


def key_value(pair: str) -> tuple[str, str]:
    """A ``K=V`` command-line argument as ``(K, V)``; argparse exits with
    USAGE on any other text."""
    k, eq, v = pair.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"bad pair {pair!r}, want key=value")
    return k, v


def _run(args) -> int:
    """Run the subcommand ``args`` names.  An error a user can mend is one
    line on stderr and the exit code of its type; any other, a traceback."""
    try:
        return args.fn(args)
    except Exception as e:
        from .server import ConfigError  # loaded only here: npc needs neither module
        from .sim import SimError
        usage = (UrlError, ConfigError, UnknownPreset, SimError, OSError, json.JSONDecodeError,
                 UnicodeDecodeError)
        for types, code in ((TransportError, TRANSPORT), (Refused, NOT_FOUND), (usage, USAGE)):
            if isinstance(e, types):
                sys.stderr.write(f"{e}\n")
                return code
        raise


# -- npc subcommands -------------------------------------------------------------

def cmd_get(args) -> int:
    admin, name = _admin_of(args.url)
    reply = _ask(admin, {"kind": "cmd", "op": "fetch", "name": name})
    sys.stdout.buffer.write(base64.b64decode(reply.get("content_b64", "")))
    return OK


def cmd_put(args) -> int:
    if args.file is not None:
        with open(args.file, "rb") as f:
            content = f.read()
    else:
        content = (args.text or "").encode("utf-8")
    admin, name = _admin_of(args.url)
    entry = {"name": name, "kind": "document", "meta": dict(args.meta or []),
             "content_b64": base64.b64encode(content).decode(),
             "media_type": args.media_type}
    reply = _ask(admin, {"kind": "cmd", "op": "insert", "entry": entry})
    print(f"inserted {name} seq {reply.get('seq')}")
    return OK


def cmd_del(args) -> int:
    admin, name = _admin_of(args.url)
    _ask(admin, {"kind": "cmd", "op": "remove", "name": name})
    print(f"removed {name}")
    return OK


def cmd_ls(args) -> int:
    reply = _ask(parse_url(args.node).child("admin").text(), {"kind": "cmd", "op": "list"})
    for e in reply.get("entries", []):
        size = len(base64.b64decode(e.get("content_b64", ""))) \
            if e.get("kind") == "document" else ""
        print(f"{e['kind']:<10}{e['name']:<32}{size}")
    return OK


def cmd_history(args) -> int:
    admin = parse_url(args.node).child("admin").text()
    reply = _ask(admin, {"kind": "cmd", "op": "history", "after": args.after,
                         "filter": args.filter, "max": args.max})
    for ev in reply.get("events", []):
        name = (ev.get("entry") or {}).get("name", "")
        extra = ev.get("subscription") or ev.get("label") or name
        print(f"{ev['seq']:>6}  {ev['kind']:<8}{ev['origin_port']:<16}{extra}")
    if not reply.get("at_end", True):
        print(f"(more after {reply.get('last')})")
    return OK


def cmd_query(args) -> int:
    admin = parse_url(args.node).child("admin").text()
    results = []
    reply = _ask(admin, {"kind": "cmd", "op": "query", "query": args.filter},
                 collect=results.append)
    for frame in results:
        entry = (frame.get("event") or {}).get("entry") or {}
        if args.content:
            sys.stdout.buffer.write(base64.b64decode(entry.get("content_b64", "")))
            sys.stdout.buffer.write(b"\n")
        else:
            shown = entry.get("meta", {}).get("source-name", entry.get("name", ""))
            print(shown)
    print(f"({reply.get('count', len(results))} results)")
    return OK


def npc_main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="npc", description="talk to npcd nodes")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("get", help="print a document's content")
    g.add_argument("url")
    g.set_defaults(fn=cmd_get)

    g = sub.add_parser("put", help="insert or replace a document")
    g.add_argument("url")
    g.add_argument("--file", help="read content from this file")
    g.add_argument("--text", help="literal content")
    g.add_argument("--media-type", default="application/octet-stream")
    g.add_argument("--meta", action="append", metavar="K=V", type=key_value)
    g.set_defaults(fn=cmd_put)

    g = sub.add_parser("del", help="remove an entry")
    g.add_argument("url")
    g.set_defaults(fn=cmd_del)

    g = sub.add_parser("ls", help="list a node's entries")
    g.add_argument("node")
    g.set_defaults(fn=cmd_ls)

    g = sub.add_parser("history", help="show a node's event history")
    g.add_argument("node")
    g.add_argument("--after", type=int, default=0)
    g.add_argument("--filter", default="true")
    g.add_argument("--max", type=int, default=256)
    g.set_defaults(fn=cmd_history)

    g = sub.add_parser("query", help="run a query against a node")
    g.add_argument("node")
    g.add_argument("filter")
    g.add_argument("--content", action="store_true",
                   help="print result contents instead of names")
    g.set_defaults(fn=cmd_query)

    return _run(p.parse_args(argv))


# -- npcd subcommands --------------------------------------------------------------

def npcd_serve(args) -> int:
    from .server import Server, ServerConfig
    with open(args.config) as f:
        raw = json.load(f)
    # every config is parsed before any server starts
    configs = [ServerConfig.from_dict(c) for c in (raw if isinstance(raw, list) else [raw])]
    servers = []
    for config in configs:
        s = Server(config, real=True)
        s.start()
        servers.append(s)
        http = f", http {s.httpd.port}" if s.httpd else ""
        print(f"{s.config.host}: listening on {s.listener.port}{http}", flush=True)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    signal.signal(signal.SIGINT, lambda *_: stop.append(1))
    try:
        while not stop:
            time.sleep(0.2)
    finally:
        for s in servers:
            s.stop()
    return OK


def npcd_preset(args) -> int:
    configs = build_preset(args.name, dict(args.param or []))
    print(json.dumps(configs, indent=2, sort_keys=True))
    return OK


def npcd_sim(args) -> int:
    from .sim import run_scenario
    if args.preset is not None:
        scenario = demo_scenario(args.preset)
    else:
        with open(args.scenario) as f:
            scenario = json.load(f)
    run = run_scenario(scenario)
    sys.stdout.write(run.tracer.text())
    return OK


def npcd_main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="npcd", description="run npc-kit servers")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("serve", help="run servers from a config file")
    g.add_argument("--config", required=True)
    g.set_defaults(fn=npcd_serve)

    g = sub.add_parser("preset", help="print the config for a stock application")
    g.add_argument("name")
    g.add_argument("--param", action="append", metavar="K=V", type=key_value)
    g.set_defaults(fn=npcd_preset)

    g = sub.add_parser("sim", help="run a scenario deterministically and print its trace")
    one = g.add_mutually_exclusive_group(required=True)
    one.add_argument("--scenario", help="scenario JSON file")
    one.add_argument("--preset", help="run a preset's demo scenario instead")
    g.set_defaults(fn=npcd_sim)

    return _run(p.parse_args(argv))


def main(argv=None) -> int:
    """python -m npckit.cli <npc|npcd> ..."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in ("npc", "npcd"):
        sys.stderr.write("usage: python -m npckit.cli {npc|npcd} ...\n")
        return USAGE
    return npc_main(argv[1:]) if argv[0] == "npc" else npcd_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main())
