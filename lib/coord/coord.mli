(** The sharding coordinator: hash-partitioned base tables over N engine
    instances with two-phase commit for cross-shard transactions.

    Base rows are partitioned by the hash of their first column (the
    table's "primary key"); escrow view groups by the hash of their
    encoded group key. The partition maps are pure functions shared by
    the coordinator and every shard ({!configure_shard} installs them
    into an engine), so any party can compute an owner without a
    directory service. Shards are reached through
    {!Ivdb_client.Client} over any transport — deterministic loopback
    fibers in one scheduler run, or TCP to [ivdb_server --shard i/N]
    processes.

    A coordinator transaction opens an ordinary server-side transaction
    on each shard a statement lands on. At [COMMIT], deltas the shards
    diverted toward remote view groups are collected over
    [sys.outbound]; a transaction with one participant and no remote
    deltas commits locally (no 2PC), anything else runs presumed-abort
    two-phase commit: participant set appended (unforced) to the
    coordinator's WAL, Prepare (carrying each shard's inbound deltas) to
    every participant, a commit decision forced (an abort decision is
    only appended), Decide fanned out. {!recover} re-delivers logged
    decisions after a coordinator crash and presumed-aborts every
    started-but-undecided transaction, including those whose begin
    record was lost, which it finds in the shards' [sys.indoubt];
    participants dedupe retransmits by global transaction id, which
    makes Decide (and delta-only Prepare) reconnect-and-resend retries
    safe. A Prepare to a shard
    whose session ran this transaction's statements is never retried —
    the disconnect rolled that session's transaction back, so a dead
    line is a No vote and the transaction aborts everywhere.
    Undeliverable decisions are re-delivered before the next commit. *)

exception Coord_error of string
(** Statement-level failure: routing restriction, a shard voting no (the
    global transaction was aborted), malformed replies. The coordinator
    session survives it. *)

(** {1 Partition maps} *)

val route_key : shards:int -> string -> int
(** Owner shard of an opaque key string (FNV-1a mod [shards]). *)

val route_value : shards:int -> Ivdb_relation.Value.t -> int
(** Owner shard of a base row, from its first-column value. *)

val route_group : shards:int -> view:int -> key:string -> int
(** Owner shard of a view group, from its encoded group key. *)

val configure_shard : Ivdb.Database.t -> shard:int -> shards:int -> unit
(** Make an engine shard [shard] of [shards]: sets its identity
    ({!Ivdb.Database.set_shard}) and installs {!route_group} as its
    delta router, so view maintenance diverts remote groups' deltas into
    the transaction's outbound buffer. *)

(** {1 Coordinator} *)

type t

val create :
  ?name:string ->
  ?wal:Ivdb_wal.Wal.t ->
  ?metrics:Ivdb_util.Metrics.t ->
  ?trace:Ivdb_util.Trace.t ->
  Ivdb_transport.Transport.dialer array ->
  t
(** Connect one client per shard (the array index is the shard id — it
    must match each engine's {!configure_shard} slot). [name] prefixes
    global transaction ids ([name:n]); it must be unique among the
    coordinators sharing a shard, since {!recover} claims the in-doubt
    transactions carrying it. Ids are issued from blocks of 1024, each
    reserved by one forced [Gtxn_reserve] log record before its first
    id is used ([create] forces the first block), so ids are dense
    within one incarnation and jump to the next block after a restart.
    [wal] is the coordinator's
    decision log; pass the previous incarnation's log (round-tripped
    through {!Ivdb_wal.Wal.crash}) to restart after a crash — the
    started/decided tables, the gtxn reservation and the routing metadata
    (partition columns and view names, logged as DDL records) are
    rebuilt by scanning it; follow with {!recover} to re-deliver
    outcomes. [metrics] is the coordinator's registry (fresh by
    default): the typed per-phase 2PC counters and histograms live
    there, and — when no [wal] is passed — so do the decision log's
    own append/force counters instead of a private throwaway registry.
    [trace] receives the coordinator-side trace events
    ([coord.route] / [coord.fast_path] / [coord.prepare] /
    [coord.vote] / [coord.decision] / [coord.decide]); defaults to a
    fresh disabled trace wired to the deterministic scheduler's clock
    and fiber id, so an enabled stream is byte-identical per seed. *)

val exec : t -> string -> Ivdb_sql.Sql.result
(** Route one SQL statement: DDL broadcasts (recording partition
    columns), INSERT splits its rows by partition, DML/SELECT with a
    top-level [pk = literal] conjunct pins to the owner, other DML and
    plain SELECTs fan out (rows concatenated, ORDER BY/LIMIT re-applied),
    SELECT over a view fans out (each group lives wholly on its owner).
    [BEGIN]/[COMMIT]/[ROLLBACK] drive the distributed transaction; a
    write outside a transaction autocommits through the same machinery
    so its remote deltas still ship. Raises {!Coord_error} (and
    {!Ivdb_client.Client} exceptions for dead shards).

    Coordinator-resident catalogs are answered locally, with full
    [sys.*] query semantics (WHERE / projection / ORDER BY / LIMIT):
    - [sys.gtxns] — live and recent global transactions: phase
      ([preparing] / [deciding] / [committed] / [aborted]), participant
      set, per-shard votes ([yes] / [no] / [dead]), ticks in the current
      phase, undelivered-decision count;
    - [sys.coord_shards] — per-shard health: address, last-contact tick,
      prepare/decide traffic, outstanding decisions, dedupe hits,
      reconnects;
    - [sys.cluster_metrics] — the coordinator registry's counters tagged
      [coord] plus every reachable shard's [sys.metrics] rows tagged
      [shard<i>] (unreachable shards are skipped, not errors).

    Every routed statement is stamped with a coordinator-assigned
    correlation id (see {!last_rid}) carried on the Exec, Prepare and
    Decide frames it causes, so shard-side trace events and
    [sys.slow_queries] rows join back to the coordinator statement. *)

val last_rid : t -> int
(** Correlation id assigned to the most recent {!exec} statement. *)

val metrics : t -> Ivdb_util.Metrics.t
(** The coordinator's metrics registry (2PC phase histograms
    [coord.prepare.ticks] / [coord.decision_force.ticks] /
    [coord.decide.ticks], vote and abort-cause counters, fast-path vs
    2PC commits, in-doubt gauge, re-delivery attempts — plus the
    decision log's counters when the WAL was created here). Feed it to
    {!Ivdb_util.Metrics.to_prometheus} or serve it with
    [Ivdb_server.Metrics_http]. *)

val trace : t -> Ivdb_util.Trace.t
(** The coordinator's trace (enable + attach sinks to observe the 2PC
    event stream). *)

val recover : t -> int
(** Resolve every started transaction: those with a begin record in the
    WAL, plus every gtxn named [name:n] that a reachable shard lists in
    [sys.indoubt] (its begin record was never forced). Re-deliver the
    logged decision, or log-and-deliver an abort for the undecided
    (presumed abort). In-doubt transactions of other coordinators are
    left alone. A shard whose [sys.indoubt] cannot be read is added to
    the participants of every undecided or aborted gtxn found, and is
    read again before the next commit; a shard that misses its decision
    is owed it until a later commit or [recover] delivers it. Returns
    the number of transactions resolved. Idempotent — participants
    answer retransmits from their dedupe tables. *)

val in_transaction : t -> bool

val server :
  ?config:Ivdb_server.Server.config ->
  t ->
  Ivdb_transport.Transport.listener ->
  unit Ivdb_server.Server.t
(** The coordinator's wire console: an {!Ivdb_server.Server} whose
    sessions answer every [Exec] through {!exec}, with the engine
    server's admission cap, drain, slow-query threshold, [net.*] trace
    events (on {!trace}) and [server.*] metrics (in {!metrics}). An
    ordinary {!Ivdb_client.Client} connected here sees the whole
    cluster, including the coordinator-resident catalogs; a
    [Metrics_req] returns this registry's Prometheus exposition. No
    [sys.*] provider is installed, so [sys.slow_queries] and the other
    engine catalogs route to a shard like any other statement.

    Errors map to [Err] frames: {!Coord_error} and
    {!Ivdb_sql.Sql.Sql_error} → [E_sql] (transaction kept open),
    parse/lex rejections → [E_parse], a shard's own [Err] is relayed
    with its original code, and a dead shard line surfaces as [E_sql]
    ["shard unreachable: …"]. [txn_open] is always the coordinator's
    transaction state.

    Every console session shares [t]'s one distributed transaction:
    [BEGIN]/[COMMIT] from concurrent clients interleave on it, and a
    session that ends (Bye, EOF, corrupt or unexpected frame) while it
    is open rolls it back, whichever client began it. *)

val shard_count : t -> int

val wal : t -> Ivdb_wal.Wal.t
(** The coordinator's decision log (for crash simulation:
    [Wal.crash (Coord.wal c) metrics] is the log a restarted coordinator
    sees). *)

type stats = {
  single_shard_commits : int;  (** commits that skipped 2PC *)
  cross_shard_commits : int;
  aborts : int;
  prepares_sent : int;  (** prepare round-trips, retransmits included *)
  decides_sent : int;
}

val stats : t -> stats

val close : t -> unit

(** {1 Deterministic crash injection}

    Every 2PC protocol action — the begin-record append, each Prepare
    send, the decision record, each Decide send — bumps a counter. Arming
    {!set_crash_at_action} [n] makes the [n]-th action raise
    {!Ivdb_storage.Fault.Crash_point} instead of happening, so a sweep
    over [n] crashes the coordinator at every message boundary of a
    workload. *)

val set_crash_at_action : t -> int option -> unit

val actions : t -> int
(** Actions performed so far (run once unarmed to size a sweep). *)
