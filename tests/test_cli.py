"""npc and npcd entry points, against a live server where needed."""

import json

import pytest

from npckit.cli import main, npc_main, npcd_main
from npckit.server import Server, ServerConfig


@pytest.fixture
def live_server():
    cfg = ServerConfig.from_dict({
        "host": "box", "npc_tcp_port": 0,
        "root": {"entries": [
            {"name": "admin", "kind": "port", "behavior": "admin"},
            {"name": "greeting", "kind": "document", "content_text": "hi there"},
        ]},
    })
    s = Server(cfg, real=True)
    s.start()
    yield s
    s.stop()


def url(server, rest: str) -> str:
    return f"npc://127.0.0.1:{server.listener.port}{rest}"


def test_get_prints_content(live_server, capsysbinary):
    rc = npc_main(["get", url(live_server, "/root/greeting")])
    assert rc == 0
    assert capsysbinary.readouterr().out == b"hi there"


def test_get_missing_is_exit_1(live_server, capsys):
    rc = npc_main(["get", url(live_server, "/root/nope")])
    assert rc == 1
    assert "not-found" in capsys.readouterr().err


def test_put_then_ls_then_del(live_server, capsys, tmp_path):
    f = tmp_path / "payload.txt"
    f.write_bytes(b"file payload")
    rc = npc_main(["put", url(live_server, "/root/upload"),
                   "--file", str(f), "--media-type", "text/plain",
                   "--meta", "topic=demo"])
    assert rc == 0
    assert "inserted upload" in capsys.readouterr().out

    rc = npc_main(["ls", url(live_server, "/root")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "upload" in out and "greeting" in out

    rc = npc_main(["del", url(live_server, "/root/upload")])
    assert rc == 0
    capsys.readouterr()
    rc = npc_main(["get", url(live_server, "/root/upload")])
    assert rc == 1


def test_history_lists_events(live_server, capsys):
    rc = npc_main(["history", url(live_server, "/root"),
                   "--filter", 'event.type == "Insert"'])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Insert" in out and "greeting" in out


def test_query_local(live_server, capsys):
    rc = npc_main(["query", url(live_server, "/root"),
                   'entry.name matches "gree*"'])
    assert rc == 0
    out = capsys.readouterr().out
    assert "greeting" in out
    assert "(1 results)" in out


def test_transport_error_is_exit_3(capsys):
    rc = npc_main(["get", "npc://127.0.0.1:1/root/x"])
    assert rc == 3


def test_bad_url_is_exit_2(capsys):
    rc = npc_main(["get", "http://not-an-npc-url/x"])
    assert rc == 2


def test_npcd_preset_emits_valid_configs(capsys):
    rc = npcd_main(["preset", "mirror"])
    assert rc == 0
    configs = json.loads(capsys.readouterr().out)
    assert [c["host"] for c in configs] == ["a", "b"]
    for c in configs:
        ServerConfig.from_dict(c)


def test_npcd_serve_refuses_a_bad_config_with_its_path(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"host": "box", "root": {"entries": [
        {"name": "p", "kind": "port", "behavior": "manual", "input_filter": 7}]}}))
    rc = npcd_main(["serve", "--config", str(f)])
    assert rc == 2
    assert "config.root.entries[0].input_filter" in capsys.readouterr().err


@pytest.mark.parametrize("config, where", [
    ({"firewall": "allow sideways *:* *"}, "config.firewall"),
    ({"stubs": {"archive": {"type": "repo", "documents": 5}}}, "config.stubs.archive.documents"),
], ids=["firewall", "stub-documents"])
def test_npcd_serve_refuses_a_bad_firewall_or_stub_with_its_path(tmp_path, capsys, config, where):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"host": "box", **config}))
    assert npcd_main(["serve", "--config", str(f)]) == 2
    assert capsys.readouterr().err.startswith(f"{where}: ")


@pytest.mark.parametrize("argv", [["npc", "put", "npc://127.0.0.1:1/root/x", "--meta", "topic"],
                                  ["npcd", "preset", "doc-server", "--param", "host"]],
                         ids=["meta", "param"])
def test_a_bad_key_value_pair_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "want key=value" in capsys.readouterr().err


def test_npcd_preset_takes_key_value_params(capsys):
    assert npcd_main(["preset", "doc-server", "--param", "host=box=1"]) == 0
    assert [c["host"] for c in json.loads(capsys.readouterr().out)] == ["box=1"]


def test_npcd_preset_unknown(capsys):
    rc = npcd_main(["preset", "warp-drive"])
    assert rc == 2


def test_npcd_sim_runs_preset_demo(capsys):
    rc = npcd_main(["sim", "--preset", "mirror"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Insert" in out and "\t" in out


def test_npcd_sim_scenario_file(tmp_path, capsys):
    scenario = {
        "servers": [{"host": "solo", "npc_tcp_port": 7070,
                     "root": {"entries": [
                         {"name": "admin", "kind": "port", "behavior": "admin"}]}}],
        "stimuli": [{"do": "http", "server": "solo", "method": "PUT",
                     "path": "/root/x", "body_text": "y"}],
    }
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(scenario))
    rc = npcd_main(["sim", "--scenario", str(f)])
    assert rc == 0
    assert "append" in capsys.readouterr().out


def test_module_main_dispatches(capsys):
    assert main([]) == 2
    assert main(["npcd", "preset", "alerting"]) == 0
    capsys.readouterr()
