"""``python -m repro`` — demos, measurement tooling, and the service layer.

Subcommands:

* ``demo`` (default) — a condensed, seeded tour of the framework: group
  creation, enrolment, a successful multi-party handshake, an impostor
  failure, self-distinction, revocation, and tracing.  Exits nonzero if
  any of the expected verdicts does not hold.
* ``stats`` — replay the complexity benchmark (one handshake per party
  count) under full instrumentation and print the per-phase / per-party
  observability tables (the measured form of the paper's O(m) claims);
  ``--format json|csv|table`` selects the stdout rendering and
  ``--percentiles`` adds latency histogram summaries; ``--from PATH``
  renders the tables from a previously exported JSON snapshot instead
  (one line + nonzero exit on a missing/empty file).  Exits nonzero if
  any same-group handshake in the sweep fails.
* ``trace`` — run one fully traced handshake (engine, simulator, a
  loopback socket room, or ``--transport cluster``: a room through a
  self-hosted multi-process cluster, with client, router and shard
  lanes) and render the span timeline as an ASCII Gantt (each span
  carries the counter book of its work); ``--out`` writes a Chrome
  ``trace_event`` JSON loadable in Perfetto (https://ui.perfetto.dev)
  and ``--jsonl`` a span log; ``--in PATH`` re-renders a previously
  exported span log exactly as the live run printed it.  All three come
  from the one span exporter, ``repro.obs.export``.  Exits nonzero if
  the handshake fails (or the input file is missing/empty).
* ``serve`` — run the asyncio rendezvous server (an untrusted relay for
  handshake rooms) until interrupted; with ``--shards N`` run the
  multi-process cluster instead (a front-door router consistent-hashing
  rooms onto N shard workers, each a full server in its own process).
* ``status`` — send the one-shot STATUS introspection query to a running
  rendezvous server or cluster router and print its live telemetry
  snapshot; a router's reply adds the per-shard health table, and its
  outcomes, counters and histograms are merged across shards.
* ``top`` — live ASCII dashboard over a running relay/router: periodic
  STATUS samples folded into rooms/s, sheds/s per reason, retry rate and
  relay p50/p99 over time (``repro.obs.telemetry``); ``--prom DIR``
  additionally writes one Prometheus text-exposition file per sample.
* ``load`` — open-loop load run (``repro.load``): spawn handshake rooms
  on a Poisson or bursty arrival clock against a rendezvous relay (a
  self-hosted server/cluster by default, or ``--port`` for a running
  one), validate every completed room's books against the symbolic
  capacity model, and print the SLO + capacity report; ``--trace PATH``
  records the run into one merged Perfetto-loadable trace (client,
  router and per-shard lanes) and adds a timeline section to the report,
  ``--prom DIR`` writes Prometheus samples alongside.
* ``revoke`` — seeded revocation-epoch demo: derive a group, queue the
  named member(s), seal ONE batched epoch (one accumulator trapdoor
  exponentiation + one CGKD rekey for the whole batch) and print the
  exact books plus the before/after handshake verdicts.  Exits nonzero
  if any verdict is wrong.
* ``epoch`` — drive a churn run through ``repro.revocation``: joins and
  sealed revocation batches per epoch, a sleeper that lazily refreshes
  at the end (one coalesced witness update within the horizon), the
  delta log tail, and the aggregate service stats the STATUS channel
  surfaces.
* ``join`` — run handshake participant(s) against a rendezvous server.
  With ``--index`` one party joins from this process (run m processes
  with the same ``--seed`` to handshake across processes: group creation
  is deterministic, so each process derives the same credentials); without
  it, all m parties run concurrently from this process — a loopback demo
  of real TCP wire traffic.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys
import time

from repro import (
    accel,
    create_scheme1,
    create_scheme2,
    metrics,
    run_handshake,
    scheme1_policy,
    scheme2_policy,
)
from repro.security.adversaries import Impostor


def _banner(text: str) -> None:
    print(f"\n=== {text}")


def _add_accel_flags(sub) -> None:
    sub.add_argument("--no-accel", action="store_true",
                     help="disable crypto acceleration (fixed-base "
                          "precomputation, batch verification); results "
                          "and operation counts are identical either way")


def _apply_accel(args: argparse.Namespace) -> None:
    """Configure repro.accel from the ``--no-accel`` flag."""
    accel.configure(enabled=not getattr(args, "no_accel", False))


def _accel_summary() -> str:
    stats = accel.stats()
    fb = stats["fixed_base"]
    return (f"accel: enabled={stats['enabled']} "
            f"fixed-base hits/misses={fb['hits']}/{fb['misses']} "
            f"tables={fb['tables']}/{fb['capacity']}")


def _demo(args: argparse.Namespace) -> int:
    _apply_accel(args)
    rng = random.Random(args.seed)
    started = time.time()
    ok = True

    def check(label: str, condition: bool) -> None:
        nonlocal ok
        if not condition:
            ok = False
            print(f"!! demo expectation failed: {label}")

    _banner("SHS.CreateGroup + SHS.AdmitMember")
    agency = create_scheme1("demo-agency", rng=rng)
    members = [agency.admit_member(f"agent-{i}", rng) for i in range(4)]
    print(f"group 'demo-agency' with {len(members)} members "
          f"({agency.authority.board and len(agency.authority.board)} board posts)")

    _banner("SHS.Handshake: four members of one group")
    outcomes = run_handshake(members, scheme1_policy(), rng)
    print("success:", all(o.success for o in outcomes),
          "| shared key:", outcomes[0].session_key.hex()[:24], "…")
    check("same-group handshake succeeds", all(o.success for o in outcomes))

    _banner("SHS.Handshake with an impostor")
    outcomes = run_handshake(members[:2] + [Impostor(rng=rng)],
                             scheme1_policy(), rng)
    print("success:", any(o.success for o in outcomes),
          "(impostor detected, affiliations never revealed)")
    check("impostor handshake fails", not any(o.success for o in outcomes))

    _banner("SHS.TraceUser")
    outcomes = run_handshake(members[:3], scheme1_policy(), rng)
    trace = agency.trace(outcomes[0].transcript)
    print("GA identifies:", ", ".join(sorted(trace.identified)))
    check("tracing identifies the participants",
          sorted(trace.identified) == ["agent-0", "agent-1", "agent-2"])

    _banner("SHS.RemoveUser (dual revocation)")
    agency.remove_user("agent-3")
    outcomes = run_handshake(members, scheme1_policy(), rng)
    print("handshake including the revoked member succeeds:",
          any(o.success for o in outcomes))
    check("revoked member breaks the handshake",
          not any(o.success for o in outcomes))
    outcomes = run_handshake(members[:3], scheme1_policy(), rng)
    print("survivors-only handshake succeeds:",
          all(o.success for o in outcomes))
    check("survivors-only handshake succeeds",
          all(o.success for o in outcomes))

    _banner("Self-distinction (instantiation 2)")
    committee = create_scheme2("demo-committee", rng=rng)
    honest = committee.admit_member("honest", rng)
    rogue = committee.admit_member("rogue", rng)
    outcomes = run_handshake([honest, rogue, rogue], scheme2_policy(), rng)
    print("rogue playing two roles detected:",
          outcomes[0].distinct is False)
    check("rogue detected", outcomes[0].distinct is False)

    print(f"\n{_accel_summary()}")
    print(f"done in {time.time() - started:.1f}s — see examples/ for more")
    return 0 if ok else 1


def _world(seed: int, scheme: str, count: int, group: str):
    """Seed a scheme-``scheme`` group named ``group`` and enrol ``count``
    members (``user-0`` …) from one ``random.Random(seed)``; returns the
    members, the scheme's policy and that rng, left where enrolment
    stopped.  Every seeded CLI world comes from here, so a process that
    reuses a seed and group name derives the same credentials."""
    rng = random.Random(seed)
    if scheme == "2":
        framework, policy = create_scheme2(group, rng=rng), scheme2_policy()
    else:
        framework, policy = create_scheme1(group, rng=rng), scheme1_policy()
    members = [framework.admit_member(f"user-{i}", rng)
               for i in range(count)]
    return members, policy, rng


def _stats_from(args: argparse.Namespace) -> int:
    """Render the tables from a previously exported metrics JSON snapshot
    (``repro stats --format json`` output) instead of re-running anything."""
    import json as _json

    try:
        with open(args.from_path) as handle:
            text = handle.read()
        if not text.strip():
            raise ValueError("empty file")
        doc = _json.loads(text)
        scopes = doc.get("scopes") if isinstance(doc, dict) else None
        if not isinstance(scopes, dict) or not scopes:
            raise ValueError("no 'scopes' section — not a metrics export")
    except (OSError, ValueError) as exc:
        print(f"!! cannot load metrics from {args.from_path}: {exc}",
              file=sys.stderr)
        return 1
    fields = ("modexp", "messages_sent", "messages_received",
              "bytes_sent", "bytes_received", "wall_time")
    names = sorted(s for s in scopes if s != "total")
    if "total" in scopes:
        names.append("total")
    rows = [[name] + [str(scopes[name].get(f, 0) or 0) for f in fields]
            for name in names]
    header = ["scope", *fields]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    print(f"metrics from {args.from_path}")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.rjust(w) if i else c.ljust(w)
                        for i, (c, w) in enumerate(zip(row, widths))))
    for name, summary in sorted((doc.get("histograms") or {}).items()):
        if summary.get("count"):
            print(f"{name}: count={summary['count']} "
                  f"p50={summary.get('p50', 0):.6g} "
                  f"p99={summary.get('p99', 0):.6g} "
                  f"max={summary.get('max', 0):.6g}")
    return 0


def _stats(args: argparse.Namespace) -> int:
    if args.from_path:
        return _stats_from(args)
    _apply_accel(args)
    top = max(args.parties)
    # Progress goes to stderr so ``--format json|csv`` stdout stays parseable.
    progress = sys.stdout if args.format == "table" else sys.stderr
    print(f"building scheme-{args.scheme} group with {top} members "
          f"(seed {args.seed}) …", file=progress)
    members, policy, rng = _world(args.seed, args.scheme, top, "stats-group")

    table_out = args.format == "table"
    all_ok = True
    last_snapshot = None
    for m in args.parties:
        metrics.reset()
        outcomes = run_handshake(members[:m], policy, rng)
        snap = metrics.snapshot()
        last_snapshot = snap
        ok = all(o.success for o in outcomes)
        all_ok = all_ok and ok
        if not table_out:
            continue
        phase_scopes = [s for s in ("phase:I", "phase:II", "phase:III")
                        if s in snap]
        party_scopes = [f"hs:{i}" for i in range(m)]
        print()
        print(metrics.format_table(
            snap, scopes=phase_scopes + party_scopes + ["total"],
            title=f"m={m} parties, success={ok} "
                  f"(paper: O(m) modexp + O(m) messages per party)"))
        if args.percentiles:
            print()
            print(metrics.format_histograms(
                title=f"m={m} latency percentiles"))

    if table_out:
        print(f"\n{_accel_summary()}")
    elif last_snapshot is not None:
        # Machine-readable stdout rendering of the final (largest-m)
        # snapshot.
        if args.format == "json":
            print(metrics.export_json(last_snapshot))
        else:
            print(metrics.export_csv(last_snapshot), end="")
    if not all_ok:
        print("\n!! at least one same-group handshake failed", file=sys.stderr)
        return 1
    return 0


def _trace(args: argparse.Namespace) -> int:
    from repro.obs import export

    if args.infile:
        # Re-render a previously exported span log — no handshake run.
        try:
            sources = export.load_spans_jsonl(args.infile)
        except (OSError, ValueError) as exc:
            print(f"!! cannot load spans from {args.infile}: {exc}",
                  file=sys.stderr)
            return 1
        count = sum(len(source["spans"]) for source in sources)
        print(export.render_gantt(
            sources, width=args.width,
            title=f"spans from {args.infile} ({count} spans)"))
        return 0
    print(f"building scheme-{args.scheme} group with {args.m} members "
          f"(seed {args.seed}) …")
    members, policy, rng = _world(args.seed, args.scheme, args.m,
                                  "trace-group")

    metrics.reset()
    metrics.enable_tracing()    # a cluster router's placement spans too
    if args.transport == "cluster":
        from repro.cluster import ClusterConfig, ClusterRouter
        from repro.load.generator import run_timed_room
        from repro.service import ClientConfig

        async def cluster_room():
            router = await ClusterRouter(ClusterConfig(
                host="127.0.0.1", port=0, shards=args.shards,
                trace=True)).start()
            try:
                result = await run_timed_room(
                    members, ClientConfig(port=router.port,
                                          room="trace-room", m=args.m),
                    policy)
                return result, await _trace_sources([result], router)
            finally:
                await router.shutdown()

        result, sources = asyncio.run(cluster_room())
        ok = result.outcome == "completed"
        title = (f"cluster handshake, m={args.m}, {args.shards} shards, "
                 f"trace={result.trace_id or '-'}, "
                 f"outcome={result.outcome}")
    else:
        if args.transport == "engine":
            outcomes = run_handshake(members, policy, rng)
        elif args.transport == "sim":
            from repro.net.runner import run_handshake_over_network
            outcomes = run_handshake_over_network(members, policy, rng=rng)
        else:  # socket: loopback rendezvous room over real TCP
            from repro.service import (ClientConfig, RendezvousServer,
                                       ServerConfig, run_room)

            async def socket_room():
                async with RendezvousServer(ServerConfig(port=0)) as server:
                    config = ClientConfig(port=server.port,
                                          room="trace-room", m=args.m)
                    return await run_room(members, config, policy)

            outcomes = asyncio.run(socket_room())
        ok = all(o.success for o in outcomes)
        sources = [{"spans": metrics.spans()}]
        title = f"{args.transport} handshake, m={args.m}, success={ok}"

    count = sum(len(source["spans"]) for source in sources)
    print()
    print(export.render_gantt(sources, width=args.width,
                              title=f"{title} ({count} spans)"))
    if args.out:
        export.export_chrome_trace(args.out, sources)
        print(f"\nwrote Chrome trace to {args.out} "
              f"(load it at https://ui.perfetto.dev)")
    if args.jsonl:
        export.export_spans_jsonl(args.jsonl, sources)
        print(f"wrote span log to {args.jsonl}")
    if not ok:
        print("\n!! handshake failed", file=sys.stderr)
        return 1
    return 0


async def _trace_sources(results, router=None):
    """The span sources of a traced run: one ``client`` source per room
    (each room records under its own recorder), this thread's relay or
    ``router`` spans, and a self-hosted cluster's ``shard:<i>`` batches."""
    if router is not None:
        # Shard spans travel on the heartbeat channel: give the last
        # batches a few beats to arrive.
        await asyncio.sleep(3 * router.config.heartbeat_interval)
    sources = [{"label": "client", "epoch": r.span_epoch, "spans": r.spans}
               for r in results if r.spans]
    own = metrics.spans()
    if own:
        sources.append({"label": "router" if router is not None else "relay",
                        "epoch": metrics.current_recorder().epoch,
                        "spans": own})
    if router is not None:
        sources += [{"label": f"shard:{shard_id}", **batch}
                    for shard_id, batch in router.shipped_spans().items()
                    if batch["spans"]]
    return sources


# ---------------------------------------------------------------------------
# Revocation subcommands.
# ---------------------------------------------------------------------------


def _revocation_world(args: argparse.Namespace):
    from repro.core.framework import GcdFramework
    from repro.revocation import RevocationService

    rng = random.Random(args.seed)
    framework = GcdFramework.create("cli-revocation", gsig_kind="acjt",
                                    gsig_profile="tiny", rng=rng)
    service = RevocationService(framework, horizon=args.horizon,
                                register=False)
    for i in range(args.members):
        service.admit(f"user-{i}", rng)
    return framework, service, rng


def _revoke(args: argparse.Namespace) -> int:
    rng_seed = args.seed
    print(f"deriving ACJT group with {args.members} members "
          f"(seed {rng_seed}) …")
    framework, service, rng = _revocation_world(args)
    roster = [f"user-{i}" for i in range(args.members)]
    unknown = [u for u in args.users if u not in roster]
    if unknown:
        print(f"!! not in the group: {', '.join(unknown)} "
              f"(roster: user-0 … user-{args.members - 1})", file=sys.stderr)
        return 1
    survivors = [u for u in roster if u not in args.users]
    if len(survivors) < 2:
        print("!! need at least two survivors for the post-epoch "
              "handshake; revoke fewer members or raise --members",
              file=sys.stderr)
        return 1
    ok = True

    _banner(f"queueing {len(args.users)} revocation(s)")
    for user in args.users:
        pending = service.revoke(user)
        print(f"  {user} queued ({pending} pending; still verifies "
              f"until the epoch seals)")

    _banner("sealing ONE batched epoch")
    with metrics.detached() as recorder:
        delta = service.seal_epoch()
    seal_modexp = recorder.snapshot().get("rev:seal")
    print(f"epoch {delta.epoch}: revoked {', '.join(delta.revoked_users)} "
          f"with ONE trapdoor exponentiation + ONE CGKD rekey")
    print(f"  sealed-epoch modexps (all parties): "
          f"{seal_modexp.modexp if seal_modexp else 0}  "
          f"(sequential would pay ~{len(args.users)}x at the manager)")

    _banner("verdicts")
    outcomes = framework.handshake(survivors[:3], rng=rng)
    survivors_ok = all(o.success for o in outcomes)
    print(f"survivors-only handshake succeeds: {survivors_ok}")
    ok = ok and survivors_ok
    mixed = framework.handshake(survivors[:2] + args.users[:1], rng=rng)
    revoked_breaks = not any(o.success for o in mixed)
    print(f"handshake including a revoked member fails: {revoked_breaks}")
    ok = ok and revoked_breaks

    stats = service.stats()
    print(f"\nservice: epoch={stats['epoch']} pending={stats['pending']} "
          f"epochs_sealed={stats['epochs_sealed']} "
          f"revoked={stats['revoked']}")
    return 0 if ok else 1


def _epoch(args: argparse.Namespace) -> int:
    from repro.revocation.model import ChurnSpec, simulate_churn

    print(f"deriving ACJT group with {args.members} members "
          f"(seed {args.seed}, horizon {args.horizon}) …")
    framework, service, rng = _revocation_world(args)
    ok = True

    _banner(f"{args.epochs} churn epochs "
            f"(1 join + 1 sealed revocation each)")
    sleeper = service.admit("sleeper", rng, enroll=False)
    slept_from = sleeper.acc_epoch
    for i in range(args.epochs):
        service.admit(f"churn-{i}", rng)
        service.revoke(f"churn-{i}")
        service.seal_epoch()
    missed = service.epoch - slept_from
    print(f"sleeper slept from epoch {slept_from} to {service.epoch} "
          f"({missed} missed epochs)")

    _banner("lazy refresh")
    with metrics.detached() as recorder:
        result = service.refresh(sleeper)
    current = sleeper.witness_is_current()
    print(f"refresh: {result}, {recorder.total().modexp} member modexps, "
          f"witness current: {current}")
    ok = ok and current and result in ("replayed", "reissued")

    _banner("delta log (most recent epochs)")
    for delta in service.delta_log()[-args.epochs:][-6:]:
        change = (f"+{len(delta.added)} join(s)" if delta.added
                  else f"-{len(delta.deleted)} revocation(s)")
        print(f"  epoch {delta.epoch:>3}: {change}"
              + (f" [{', '.join(delta.revoked_users)}]"
                 if delta.revoked_users else ""))

    stats = service.stats()
    print(f"\nservice: epoch={stats['epoch']} pending={stats['pending']} "
          f"epochs_sealed={stats['epochs_sealed']} "
          f"revoked={stats['revoked']} log={stats['log_len']}/"
          f"{stats['horizon']}")

    if args.simulate:
        _banner(f"projected books at {args.simulate:g} members "
                f"(counter-only simulation)")
        doc = simulate_churn(ChurnSpec(
            members=int(args.simulate), epochs=args.epochs,
            revocations_per_epoch=50, joins_per_epoch=25,
            sleepers=int(args.simulate) // 100, horizon=args.horizon))
        for leg in ("sequential", "batched"):
            print(f"  {leg:<11} total modexps: "
                  f"{doc[leg]['total_modexps']:,}")
        print(f"  speedup: {doc['speedup_total']:.1f}x")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Service subcommands.
# ---------------------------------------------------------------------------


def _serve(args: argparse.Namespace) -> int:
    from repro.service import RendezvousServer, ServerConfig

    _apply_accel(args)

    async def single() -> int:
        config = ServerConfig(
            host=args.host, port=args.port,
            room_fill_timeout=args.room_fill_timeout,
            handshake_timeout=args.handshake_timeout,
            max_rooms=args.max_rooms)
        server = await RendezvousServer(config).start()
        print(f"rendezvous server listening on {args.host}:{server.port} "
              f"(untrusted relay — it sees only wire-format ciphertexts)")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.shutdown()
            snap = metrics.snapshot()
            print(metrics.format_table(
                snap, scopes=[s for s in sorted(snap) if s != "total"] + ["total"],
                fields=("messages_sent", "messages_received",
                        "bytes_sent", "bytes_received", "wall_time"),
                title="service metrics"))
        return 0

    async def cluster() -> int:
        from repro.cluster import ClusterConfig, ClusterRouter

        config = ClusterConfig(
            host=args.host, port=args.port, shards=args.shards,
            room_fill_timeout=args.room_fill_timeout,
            handshake_timeout=args.handshake_timeout,
            max_rooms_per_shard=args.max_rooms)
        router = await ClusterRouter(config).start()
        print(f"cluster router listening on {args.host}:{router.port} — "
              f"{args.shards} shard processes behind it "
              f"(rooms consistent-hashed by rendezvous name; "
              f"query with `python -m repro status`)")
        try:
            await router.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await router.shutdown()
        return 0

    try:
        return asyncio.run(cluster() if args.shards > 0 else single())
    except KeyboardInterrupt:
        print("\nshutting down")
        return 0


def _gate(args: argparse.Namespace) -> int:
    from repro.gate.http import GatewayConfig, HttpGateway

    async def main() -> int:
        router = None
        target_port = args.target_port
        if target_port == 0:
            from repro.cluster import ClusterConfig, ClusterRouter
            router = await ClusterRouter(ClusterConfig(
                host=args.host, shards=args.shards)).start()
            target_port = router.port
            print(f"cluster router on {args.host}:{target_port} "
                  f"({args.shards} shards)")
        members, policy, _ = _world(args.seed, args.scheme, args.pool,
                                    "gate-group")
        gateway = await HttpGateway(
            GatewayConfig(host=args.host, port=args.port,
                          target_host=args.host, target_port=target_port,
                          deadline=args.deadline, seed=args.seed),
            members, policy).start()
        print(f"HTTP gateway on http://{args.host}:{gateway.port} — "
              f"POST /rooms, GET /rooms/{{name}}, GET /status, "
              f"GET /metrics (member pool: {args.pool})")
        try:
            await gateway.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await gateway.shutdown()
            if router is not None:
                await router.shutdown()
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        print("\nshutting down")
        return 0


def _join(args: argparse.Namespace) -> int:
    from repro.core.handshake import HandshakeOutcome
    from repro.service import ClientConfig, join_room, run_room

    _apply_accel(args)
    print(f"deriving scheme-{args.scheme} group from seed {args.seed} "
          f"(m={args.m}) …")
    members, policy, _ = _world(args.seed, args.scheme, args.m, "cli-room")
    config = ClientConfig(host=args.host, port=args.port, room=args.room,
                          m=args.m, deadline=args.deadline)

    async def main():
        if args.index is not None:
            rng = random.Random(args.seed * 1000 + args.index)
            return [await join_room(members[args.index], config, policy, rng)]
        return await run_room(members, config, policy)

    outcomes = asyncio.run(main())
    for outcome in outcomes:
        assert isinstance(outcome, HandshakeOutcome)
        peers = ", ".join(str(i) for i in sorted(outcome.confirmed_peers))
        key = (outcome.session_key.hex()[:24] + " …"
               if outcome.session_key else "-")
        print(f"party {outcome.index}: success={outcome.success} "
              f"confirmed_peers=[{peers}] key={key}")
    ok = bool(outcomes) and all(o.success for o in outcomes)
    return 0 if ok else 1


def _load(args: argparse.Namespace) -> int:
    import json as _json

    from repro.load import (LoadConfig, RoomMix, build_report,
                            format_report, run_open_loop)
    from repro.service import query_status

    _apply_accel(args)
    try:
        mix = RoomMix.parse(args.mix)
    except ValueError as exc:
        print(f"!! bad --mix: {exc}", file=sys.stderr)
        return 1
    members, policy, _ = _world(args.seed, args.scheme, mix.max_m,
                                "load-group")
    config = LoadConfig(
        host=args.host, port=args.port, rate=args.rate,
        duration=args.duration, process=args.process,
        burst_factor=args.burst_factor, on_fraction=args.on_fraction,
        cycle=args.cycle, mix=mix, scheme=args.scheme, seed=args.seed,
        deadline=args.deadline, validate=not args.no_validate)

    tracing = bool(args.trace)
    sampling = tracing or bool(args.prom)

    async def _run(port: int, shards: int, router=None) -> int:
        from repro.obs import telemetry

        run_config = LoadConfig(**{**config.__dict__, "port": port})
        recorder = metrics.Recorder()
        recorder.tracing = tracing    # per-room recorders inherit this
        sampler = sampler_task = None
        if sampling:
            # The sampler runs outside the driver recorder's context so
            # its STATUS queries never touch the driver's books.
            sampler = telemetry.StatusSampler(
                args.host, port, interval=args.sample_interval,
                client_recorder=recorder, prom_dir=args.prom)
            sampler_task = asyncio.ensure_future(sampler.run())
        with metrics.using(recorder):
            results = await run_open_loop(run_config, members, policy)
        if sampler is not None:
            await sampler.stop(sampler_task)
        try:
            status = await query_status(args.host, port, timeout=5.0)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            status = None
        timeline = (sampler.series.timeline_doc()
                    if sampler is not None and len(sampler.series) > 1
                    else None)
        doc = build_report(run_config, results, status=status,
                           recorder=recorder, shards=max(shards, 1),
                           max_rooms_per_shard=args.max_rooms,
                           timeline=timeline)
        print(format_report(doc))
        if args.prom and sampler is not None:
            print(f"wrote {len(sampler.series)} Prometheus samples "
                  f"to {args.prom}/")
        if args.trace:
            from repro.obs import export

            sources = await _trace_sources(results, router)
            export.export_chrome_trace(args.trace, sources)
            spans_n = sum(len(s["spans"]) for s in sources)
            print(f"wrote merged trace to {args.trace} "
                  f"({len(sources)} sources, {spans_n} spans — load it "
                  f"at https://ui.perfetto.dev)")
        if args.json:
            with open(args.json, "w") as handle:
                _json.dump(doc, handle, indent=2, sort_keys=True)
            print(f"wrote report JSON to {args.json}")
        counts_ok = doc["model"]["counts_exact"] or args.no_validate
        return 0 if counts_ok else 1

    async def main() -> int:
        if tracing:
            # The self-hosted relay/router runs on this thread's ambient
            # recorder; enabling tracing here is what makes its placement
            # / room spans land somewhere collectable.
            metrics.enable_tracing()
        if args.port:
            # Target a relay someone else is running.
            return await _run(args.port, args.shards)
        if args.shards > 0:
            from repro.cluster import ClusterConfig, ClusterRouter

            cluster_config = ClusterConfig(
                host=args.host, port=0, shards=args.shards,
                max_rooms_per_shard=args.max_rooms,
                trace=tracing)
            router = await ClusterRouter(cluster_config).start()
            print(f"self-hosted cluster: {args.shards} shards behind "
                  f"port {router.port}")
            try:
                return await _run(router.port, args.shards, router=router)
            finally:
                await router.shutdown()
        from repro.service import RendezvousServer, ServerConfig

        server_config = ServerConfig(host=args.host, port=0,
                                     max_rooms=args.max_rooms)
        async with RendezvousServer(server_config) as server:
            print(f"self-hosted rendezvous server on port {server.port}")
            return await _run(server.port, 1)

    return asyncio.run(main())


def _top(args: argparse.Namespace) -> int:
    """Live ASCII dashboard over a running relay/router's STATUS."""
    from repro.obs.telemetry import StatusSampler, render_top

    async def run() -> int:
        sampler = StatusSampler(args.host, args.port,
                                interval=args.interval,
                                prom_dir=args.prom)
        taken = 0
        while args.samples is None or taken < args.samples:
            sample = await sampler.sample_once()
            taken += 1
            if sample is None and not len(sampler.series):
                print(f"!! cannot reach {args.host}:{args.port} "
                      f"(is a relay running there?)", file=sys.stderr)
                return 1
            frame = render_top(sampler.series, rows=args.rows,
                               title=f"repro top — {args.host}:{args.port} "
                                     f"every {args.interval:g}s")
            if args.samples is None:
                # Interactive: redraw in place (clear screen + home).
                print("\x1b[2J\x1b[H" + frame, flush=True)
            else:
                print(frame, flush=True)
            if args.samples is None or taken < args.samples:
                await asyncio.sleep(args.interval)
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print()
        return 0


def _status(args: argparse.Namespace) -> int:
    """Print one STATUS reply from a rendezvous server or cluster router;
    a router's reply adds the cluster header and per-shard lines."""
    import json as _json

    from repro.errors import TransportError
    from repro.service import query_status

    try:
        status = asyncio.run(query_status(args.host, args.port,
                                          timeout=args.timeout))
    except (TransportError, ConnectionError, OSError,
            asyncio.TimeoutError) as exc:
        print(f"!! could not query {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
        return 0
    rooms = status.get("rooms", {})
    room_counts = (f"{rooms.get('filling', 0)} filling / "
                   f"{rooms.get('active', 0)} active / "
                   f"{rooms.get('closed', 0)} closed")
    cluster = status.get("cluster")
    merged = ""
    if cluster is None:
        queues = status.get("send_queues", {})
        print(f"relay {args.host}:{args.port} — "
              f"up {status.get('uptime_s', 0.0):.1f}s, "
              f"accepting={status.get('accepting')}")
        print(f"connections: {status.get('connections', 0)}  "
              f"rooms: {room_counts}")
        print(f"send queues: depth {queues.get('total_depth', 0)} total, "
              f"{queues.get('max_depth', 0)} max; "
              f"relay backlog {status.get('relay_backlog', 0)}")
    else:
        merged = " (merged)"
        states = ", ".join(f"{state}: {ids}" for state, ids
                           in sorted(cluster.get("states", {}).items()))
        print(f"cluster router {args.host}:{args.port} — "
              f"up {cluster.get('router_uptime_s', 0.0):.1f}s, "
              f"accepting={cluster.get('accepting')}, "
              f"{cluster.get('shards', 0)} shards ({states})")
        print(f"rooms (all shards): {room_counts}"
              f"  open={status.get('open_rooms', 0)}"
              f"  connections={status.get('connections', 0)}")
        shards = status.get("shards", {})
        if shards:
            print("shards:")
        for shard_id in sorted(shards, key=int):
            line = shards[shard_id]
            age = line.get("heartbeat_age_s")
            shard_rooms = line.get("rooms") or {}
            print(f"  #{shard_id:<3} {line.get('state', '?'):<9} "
                  f"port={line.get('port') or '-':<6} "
                  f"hb_age={age if age is not None else '-':<7} "
                  f"rooms={shard_rooms.get('filling', 0)}f/"
                  f"{shard_rooms.get('active', 0)}a/"
                  f"{shard_rooms.get('closed', 0)}c")
    for section in ("outcomes", "counters"):
        entries = status.get(section, {})
        if entries:
            print(f"{section}{merged}:")
            for name in sorted(entries):
                print(f"  {name:<32} {entries[name]}")
    hists = status.get("histograms", {})
    if hists:
        print(f"histograms{merged}:")
        for name in sorted(hists):
            s = hists[name]
            if not s["count"]:
                print(f"  {name:<24} count=0")
                continue
            print(f"  {name:<24} count={s['count']:<6} "
                  f"p50={s['p50']:.6g} p90={s['p90']:.6g} "
                  f"p99={s['p99']:.6g} max={s['max']:.6g}")
    accel_stats = status.get("accel")
    if accel_stats:
        fb = accel_stats.get("fixed_base", {})
        print(f"accel: enabled={accel_stats.get('enabled')}  "
              f"fixed-base hits/misses={fb.get('hits', 0)}/"
              f"{fb.get('misses', 0)} tables={fb.get('tables', 0)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    demo = sub.add_parser("demo", help="seeded framework tour (the default)")
    demo.add_argument("--seed", type=int, default=2005,
                      help="RNG seed for the tour (default: 2005)")
    _add_accel_flags(demo)

    stats = sub.add_parser(
        "stats", help="replay a benchmark handshake and print per-phase "
                      "and per-party cost tables")
    stats.add_argument("-m", "--parties", type=int, nargs="+",
                       default=[2, 4], metavar="M",
                       help="party counts to sweep (default: 2 4)")
    stats.add_argument("--scheme", choices=("1", "2"), default="1",
                       help="instantiation: 1 = BD+LKH+ACJT, "
                            "2 = BD+NNL+KTY (default: 1)")
    stats.add_argument("--seed", type=int, default=2005)
    stats.add_argument("--percentiles", action="store_true",
                       help="also print latency histogram percentile "
                            "tables (p50/p90/p99)")
    stats.add_argument("--format", choices=("table", "json", "csv"),
                       default="table",
                       help="stdout rendering: human tables (default), or "
                            "the final snapshot as JSON / CSV")
    stats.add_argument("--from", dest="from_path", metavar="PATH",
                       help="render tables from a previously exported "
                            "metrics JSON snapshot instead of running "
                            "anything (nonzero exit on a missing or "
                            "empty file)")
    _add_accel_flags(stats)

    trace = sub.add_parser(
        "trace", help="run one traced handshake and render the span "
                      "timeline (ASCII Gantt; optional Perfetto export)")
    trace.add_argument("-m", type=int, default=3,
                       help="party count (default: 3)")
    trace.add_argument("--transport",
                       choices=("engine", "sim", "socket", "cluster"),
                       default="sim",
                       help="how to run the handshake: synchronous engine, "
                            "in-process simulator (default), a loopback "
                            "TCP rendezvous room, or a room through a "
                            "self-hosted multi-process cluster (client, "
                            "router and shard lanes in one trace)")
    trace.add_argument("--scheme", choices=("1", "2"), default="1")
    trace.add_argument("--seed", type=int, default=2005)
    trace.add_argument("--width", type=int, default=60,
                       help="Gantt bar width in characters (default: 60)")
    trace.add_argument("--out", metavar="PATH",
                       help="write a Chrome trace_event JSON "
                            "(load at https://ui.perfetto.dev)")
    trace.add_argument("--jsonl", metavar="PATH",
                       help="write finished spans as JSON lines")
    trace.add_argument("--shards", type=int, default=2, metavar="N",
                       help="shard count for --transport cluster "
                            "(default: 2)")
    trace.add_argument("--in", dest="infile", metavar="PATH",
                       help="render a previously exported span log "
                            "(--jsonl output) instead of running a "
                            "handshake (nonzero exit on a missing or "
                            "empty file)")

    serve = sub.add_parser(
        "serve", help="run the rendezvous server (untrusted relay) "
                      "until interrupted")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7045)
    serve.add_argument("--room-fill-timeout", type=float, default=30.0)
    serve.add_argument("--handshake-timeout", type=float, default=60.0)
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="run a multi-process cluster: a front-door "
                            "router placing rooms onto N shard worker "
                            "processes (default: 0 = single process)")
    serve.add_argument("--max-rooms", type=int, default=None, metavar="R",
                       help="admission ceiling on open rooms (per shard "
                            "when clustered); beyond it new rooms are "
                            "shed with a retryable BUSY frame")
    _add_accel_flags(serve)

    load = sub.add_parser(
        "load", help="open-loop load run with symbolic-model validation "
                     "and an SLO/capacity report")
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, default=0,
                      help="target a relay already running on PORT "
                           "(default: 0 = self-host one for the run)")
    load.add_argument("--rate", type=float, default=2.0, metavar="R",
                      help="mean arrival rate, rooms/second (default: 2)")
    load.add_argument("--duration", type=float, default=10.0, metavar="S",
                      help="arrival-generation window, seconds "
                           "(default: 10)")
    load.add_argument("--process", choices=("poisson", "bursty"),
                      default="poisson",
                      help="arrival process (default: poisson)")
    load.add_argument("--burst-factor", type=float, default=4.0,
                      help="bursty: ON-state rate as a multiple of the "
                           "mean rate (default: 4)")
    load.add_argument("--on-fraction", type=float, default=0.3,
                      help="bursty: fraction of time in the ON state "
                           "(default: 0.3)")
    load.add_argument("--cycle", type=float, default=2.0,
                      help="bursty: mean ON+OFF cycle length, seconds "
                           "(default: 2)")
    load.add_argument("--mix", default="2:1", metavar="M:W,...",
                      help="room-size mix as size:weight pairs, e.g. "
                           "'2:0.7,3:0.2,8:0.1' (default: all m=2)")
    load.add_argument("--shards", type=int, default=0, metavar="N",
                      help="self-host a cluster with N shards "
                           "(default: 0 = single server; ignored with "
                           "--port)")
    load.add_argument("--max-rooms", type=int, default=None, metavar="R",
                      help="admission ceiling for the self-hosted relay "
                           "(per shard when clustered)")
    load.add_argument("--scheme", choices=("1", "2"), default="1")
    load.add_argument("--seed", type=int, default=2005)
    load.add_argument("--deadline", type=float, default=30.0,
                      help="per-party client deadline, seconds "
                           "(default: 30)")
    load.add_argument("--no-validate", action="store_true",
                      help="skip per-room model validation")
    load.add_argument("--json", metavar="PATH",
                      help="write the full report document as JSON")
    load.add_argument("--trace", metavar="PATH",
                      help="trace the run and write one merged "
                           "Perfetto-loadable Chrome trace: client, "
                           "router and per-shard lanes, one trace id "
                           "per room")
    load.add_argument("--prom", metavar="DIR",
                      help="sample STATUS during the run and write one "
                           "Prometheus text-exposition file per sample "
                           "into DIR")
    load.add_argument("--sample-interval", type=float, default=0.5,
                      metavar="S",
                      help="STATUS sampling interval for --trace/--prom "
                           "and the report's timeline section "
                           "(default: 0.5)")
    _add_accel_flags(load)

    gate = sub.add_parser(
        "gate", help="HTTP/JSON gateway in front of a relay: spawn rooms "
                     "with POST /rooms, poll GET /rooms/{name}, scrape "
                     "GET /metrics (Prometheus)")
    gate.add_argument("--host", default="127.0.0.1")
    gate.add_argument("--port", type=int, default=7080,
                      help="gateway listen port (default: 7080; 0 = "
                           "ephemeral)")
    gate.add_argument("--target-port", type=int, default=0, metavar="P",
                      help="front a relay/router already running on P "
                           "(default: 0 = self-host a cluster)")
    gate.add_argument("--shards", type=int, default=2, metavar="N",
                      help="shard count for the self-hosted cluster "
                           "(default: 2; ignored with --target-port)")
    gate.add_argument("--pool", type=int, default=8, metavar="M",
                      help="members enrolled in the gateway's seeded "
                           "group — the ceiling on a room's m "
                           "(default: 8)")
    gate.add_argument("--scheme", choices=("1", "2"), default="1")
    gate.add_argument("--seed", type=int, default=2005)
    gate.add_argument("--deadline", type=float, default=30.0,
                      help="per-party deadline for spawned rooms, "
                           "seconds (default: 30)")

    revoke = sub.add_parser(
        "revoke", help="seeded demo of one batched revocation epoch: "
                       "queue member(s), seal, print exact books and "
                       "before/after handshake verdicts")
    revoke.add_argument("users", nargs="+", metavar="USER",
                        help="member(s) to revoke, e.g. user-3 user-4 "
                             "(the seeded roster is user-0 … user-N)")
    revoke.add_argument("--members", type=int, default=5, metavar="N",
                        help="group size to derive (default: 5)")
    revoke.add_argument("--seed", type=int, default=2005)
    revoke.add_argument("--horizon", type=int, default=64,
                        help="delta-log replay horizon (default: 64)")

    epoch = sub.add_parser(
        "epoch", help="drive churn epochs through the revocation service: "
                      "sealed batches, a lazy sleeper refresh, the delta "
                      "log and the service stats STATUS surfaces")
    epoch.add_argument("--members", type=int, default=4, metavar="N",
                       help="initial group size (default: 4)")
    epoch.add_argument("--epochs", type=int, default=6, metavar="E",
                       help="churn epochs to run (default: 6)")
    epoch.add_argument("--seed", type=int, default=2005)
    epoch.add_argument("--horizon", type=int, default=64,
                       help="delta-log replay horizon (default: 64)")
    epoch.add_argument("--simulate", type=float, default=None, metavar="N",
                       help="also print projected sequential-vs-batched "
                            "books for an N-member population (counter-"
                            "only, e.g. --simulate 1e6)")

    join = sub.add_parser(
        "join", help="join a handshake room on a rendezvous server")
    join.add_argument("--host", default="127.0.0.1")
    join.add_argument("--port", type=int, default=7045)
    join.add_argument("--room", default="cli-room")
    join.add_argument("-m", type=int, default=3,
                      help="room size (default: 3)")
    join.add_argument("--index", type=int, default=None,
                      help="run only party INDEX from this process "
                           "(default: run all m parties concurrently)")
    join.add_argument("--seed", type=int, default=2005,
                      help="group-derivation seed; every joining process "
                           "must use the same value")
    join.add_argument("--scheme", choices=("1", "2"), default="1")
    join.add_argument("--deadline", type=float, default=60.0,
                      help="overall per-party deadline in seconds")
    _add_accel_flags(join)

    status = sub.add_parser(
        "status", help="query a running rendezvous server's or cluster "
                       "router's live telemetry (a router adds per-shard "
                       "health and merged tallies)")
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=7045)
    status.add_argument("--timeout", type=float, default=5.0)
    status.add_argument("--json", action="store_true",
                        help="print the raw JSON snapshot")

    top = sub.add_parser(
        "top", help="live ASCII dashboard over a running relay/router: "
                    "rooms/s, sheds/s, retry rate and relay percentiles "
                    "derived from periodic STATUS samples")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7045)
    top.add_argument("--interval", type=float, default=1.0, metavar="S",
                     help="sampling interval, seconds (default: 1)")
    top.add_argument("--samples", type=int, default=None, metavar="N",
                     help="take N samples then exit (default: run until "
                          "interrupted; N is what CI uses)")
    top.add_argument("--rows", type=int, default=12,
                     help="rate rows to show per frame (default: 12)")
    top.add_argument("--prom", metavar="DIR",
                     help="also write one Prometheus text file per sample "
                          "into DIR")

    args = parser.parse_args(argv)
    if args.command == "stats":
        if min(args.parties) < 2:
            stats.error("a handshake needs at least two parties (-m >= 2)")
        return _stats(args)
    if args.command == "trace":
        if args.m < 2:
            trace.error("a handshake needs at least two parties (-m >= 2)")
        if args.transport == "cluster" and args.shards < 1:
            trace.error("--shards must be >= 1")
        return _trace(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "load":
        if args.rate <= 0 or args.duration <= 0:
            load.error("--rate and --duration must be positive")
        return _load(args)
    if args.command == "gate":
        if args.pool < 2:
            gate.error("--pool must be >= 2 (a room needs two parties)")
        if args.target_port == 0 and args.shards < 1:
            gate.error("--shards must be >= 1 when self-hosting")
        return _gate(args)
    if args.command == "revoke":
        if args.members < 3:
            revoke.error("--members must be >= 3 (two survivors must "
                         "remain after the revocation)")
        return _revoke(args)
    if args.command == "epoch":
        if args.epochs < 1:
            epoch.error("--epochs must be >= 1")
        return _epoch(args)
    if args.command == "status":
        return _status(args)
    if args.command == "top":
        if args.interval <= 0:
            top.error("--interval must be positive")
        return _top(args)
    if args.command == "join":
        if args.m < 2:
            join.error("a handshake needs at least two parties (-m >= 2)")
        if args.index is not None and not 0 <= args.index < args.m:
            join.error(f"--index must be in [0, {args.m})")
        return _join(args)
    if args.command is None:
        args.seed = 2005
    return _demo(args)


if __name__ == "__main__":
    sys.exit(main())
