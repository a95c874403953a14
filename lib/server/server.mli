(** The ivdb network server: one session fiber per connection on the
    cooperative scheduler, generic over what a connection is served by.

    {b Sessions.} The connection machinery — accept and admission,
    handshake, drain, per-[Exec] bookkeeping, [Metrics_req], and rollback
    when a connection ends — is shared. What a connection executes
    against is a {!session} opened at handshake: [exec] turns one
    statement into its response frame (the backend maps its own
    exceptions to [Err]), [in_transaction] says whether a transaction is
    open, and [rollback] discards it. {!create} serves an engine: each
    connection gets its own {!Ivdb_sql.Sql.session}. {!create_with}
    serves any other backend, such as the shard coordinator's console
    ([Ivdb_coord.Coord.server]).

    [serve] spawns an accept fiber that polls the listener and spawns a
    session fiber per admitted connection. Admission control is a hard
    in-flight cap: a connection arriving above [max_inflight] is shed
    with a {!Ivdb_wire.Wire.Busy} frame and closed before any SQL runs.
    [drain] stops the listener and lets open sessions finish: a session
    holding an open transaction may still run statements through its
    [COMMIT]/[ROLLBACK]; one without gets [Err E_draining] + [Bye] on its
    next request. A connection that ends by [Bye], EOF, a corrupt frame
    or an unexpected frame has its open transaction rolled back first.
    Once every session exits the scheduler run completes — a clean drain
    leaks no fibers.

    Per-request instrumentation lands in the backend's
    {!Ivdb_util.Metrics} registry ([server.accepted], [server.shed],
    [server.requests], [server.sessions_closed], [server.slow_queries],
    [server.inflight] and [server.request.ticks] histograms) and
    {!Ivdb_util.Trace} ([net.accept], [net.shed], [net.request],
    [net.response], [net.slow_query], [net.close]). The client-assigned
    correlation id ([rid]) of each [Exec] frame is echoed into the
    request, response and slow-query events, so a statement can be
    joined across client logs, server trace, and [sys.slow_queries]. A
    [Metrics_req] frame is answered with a [Msg] carrying the Prometheus
    text exposition of that registry.

    {b What the engine session adds.} Every engine session's SQL state
    is given live [sys.server_sessions], [sys.slow_queries] and
    [sys.replication] providers (via {!Ivdb_sql.Sql.add_sys_provider}),
    so introspection queries over the wire see the whole registry. It
    also answers three frame families no other backend does: the 2PC
    participant's [Prepare]/[Decide] (answered from the engine's dedupe
    tables first, so coordinator retransmits are never re-executed),
    replication's [ReplSubscribe], and the failover admin frames
    [Promote]/[DropSlot]. To any other backend these are unexpected
    frames.

    {b Replication.} A session that sends [ReplSubscribe] leaves
    request/response mode permanently: the server streams the stable WAL
    tail to it in [ReplRecords] batches (at most 128 records each) under
    stop-and-wait flow control — one batch in flight, the next sent only
    after the replica's [ReplAck]. Subscribing registers a durable
    {e slot} under the replica's name; the slot's acknowledged horizon
    pins the WAL retain floor ({!Ivdb_wal.Wal.set_retain_floor}) so
    checkpoint truncation never discards records a known replica — even
    a disconnected one — has yet to apply. A subscribe below
    [first_lsn] (no slot pinned the log, e.g. a brand-new replica
    joining after heavy truncation with no prior slot) is refused with
    [Err E_repl]: that replica must be re-seeded. Shipping cost lands in
    [server.repl.batches] / [server.repl.records].

    Each [ReplRecords] batch carries the commit horizon
    ({!Ivdb_wal.Wal.commit_horizon_upto}) so the replica applies only
    transaction-consistent prefixes; its [ReplAck] may therefore trail
    the shipped position and is treated purely as slot/retention
    progress. Two admin frames complete the failover story: [Promote]
    (follower server only — stops the attached driver, calls
    {!Ivdb.Database.promote}, answers [Msg]) and [DropSlot] (forget a
    detached slot so it stops pinning WAL retention; refused with
    [Err E_repl] for an unknown or still-connected slot). *)

type config = {
  max_inflight : int;  (** sessions served concurrently (default 32) *)
  busy_retry_ticks : int;
      (** backoff hint carried in the [Busy] shed frame (default 100) *)
  name : string;  (** server identity sent in [Welcome] (default "ivdb") *)
  slow_query_ticks : int option;
      (** statements taking at least this many simulated ticks are recorded
          in [sys.slow_queries] and emit a [net.slow_query] trace event
          (default [None]: disabled) *)
}

val default_config : config

type 'backend t
(** A server; ['backend] is {!engine} for {!create}, [unit] for
    {!create_with}. *)

type engine

type session

val session :
  exec:(seq:int -> string -> Ivdb_wire.Wire.frame) ->
  in_transaction:(unit -> bool) ->
  rollback:(unit -> unit) ->
  session
(** A backend's per-connection session. [exec ~seq sql] must answer
    every statement with a response frame carrying [seq] — it never
    raises for a statement-level failure. *)

val create :
  ?config:config ->
  Ivdb.Database.t ->
  Ivdb_transport.Transport.listener ->
  engine t
(** Serve an engine: metrics and trace events land in the database's
    registry and trace. *)

val create_with :
  ?config:config ->
  metrics:Ivdb_util.Metrics.t ->
  trace:Ivdb_util.Trace.t ->
  (unit -> session) ->
  Ivdb_transport.Transport.listener ->
  unit t
(** Serve any backend: the function opens one session per admitted
    connection, at handshake. *)

val serve : _ t -> unit
(** Spawn the accept fiber. Must be called inside a scheduler run; the
    fiber exits once the listener is stopped (see {!drain}). *)

val drain : _ t -> unit
(** Stop accepting, begin refusing new transactions. Idempotent. *)

val draining : _ t -> bool

val inflight : _ t -> int
(** Sessions currently admitted and not yet closed. *)

val serve_loopback :
  ?config:config ->
  Ivdb.Database.t array ->
  Ivdb_transport.Transport.dialer array * (unit -> unit)
(** [serve_loopback dbs] serves every engine of [dbs] on its own
    loopback net (backlog 64). Returns one dialer per engine, in the
    same order, and a closure that drains every server. Must be called
    inside a scheduler run. *)

val attach_replica : engine t -> Replica.t -> unit
(** On a follower's server: register the local replication driver. While
    the database is still a follower, [sys.replication] serves the
    driver's one follower row; after promotion it switches to the
    primary-shaped slot rows — the role transition is visible in the
    catalog. Attaching also lets the [Promote] wire frame stop the driver
    before calling {!Ivdb.Database.promote}. *)

val replicas : engine t -> (string * int * bool) list
(** Known replication slots as [(name, acked_lsn, connected)], sorted by
    name. Empty when nothing ever subscribed. *)
