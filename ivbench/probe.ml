(* What one round of a workload records: end-to-end samples on both clocks
   (always), and in a traced round the spans the benchmark opens around its
   calls into ivdb, the engines' trace events stamped with wall clock, the
   SQL texts and wire bytes it sent — all kept in memory and summarised into
   per-layer metrics once the round ends. *)

module Trace = Ivdb_util.Trace
module Metrics = Ivdb_util.Metrics
module Sched = Ivdb_sched.Sched
module Transport = Ivdb_transport.Transport
module Wire = Ivdb_wire.Wire
module Log_record = Ivdb_wal.Log_record

let now_us () = Unix.gettimeofday () *. 1e6

(* A bench-side span around one call into a layer; [txn] is the bench's
   transaction number, shared by every span of one transaction. *)
type span = {
  name : string;
  txn : int;
  t0 : float;
  t1 : float;
  k0 : int;
  k1 : int;
}

type t = {
  traced : bool;
  txn_us : Stats.vec;
  txn_ticks : Stats.vec;
  read_us : Stats.vec;
  read_ticks : Stats.vec;
  mutable commits : int;
  mutable reads : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failure reasons *)
  mutable next_txn : int;
  mutable open_txns : int;  (** started, not yet finished *)
  mutable versions_max : int;
  mutable spans : span list;
  mutable events : (float * string * Trace.record) list;
  mutable sql : string list;
  mutable wire : Buffer.t list;
  mutable recording : bool;  (** sinks and taps keep data only while set *)
}

let create ~traced =
  {
    traced;
    txn_us = Stats.vec ();
    txn_ticks = Stats.vec ();
    read_us = Stats.vec ();
    read_ticks = Stats.vec ();
    commits = 0;
    reads = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    next_txn = 0;
    open_txns = 0;
    versions_max = 0;
    spans = [];
    events = [];
    sql = [];
    wire = [];
    recording = false;
  }

(* Bracket the measured phase: trace records and wire bytes outside it
   (schema, preload, handshakes, gates) are not kept. *)
let start p = p.recording <- p.traced
let stop p = p.recording <- false

exception Wall_deadline

let fail p reason =
  p.failed <- p.failed + 1;
  if List.length p.errors < 5 then p.errors <- reason :: p.errors

(* One closed-loop transaction, timed from BEGIN to the commit
   acknowledgement on both clocks. [body] gets the bench transaction
   number; any exception it raises (given up after retries, aborted by a
   vote, an error reply) counts the transaction as failed. *)
let txn p ~read body =
  p.attempted <- p.attempted + 1;
  p.open_txns <- p.open_txns + 1;
  let id = p.next_txn in
  p.next_txn <- id + 1;
  let t0 = now_us () and k0 = Sched.now () in
  let result = match body id with () -> Ok () | exception (Wall_deadline as e) -> raise e | exception e -> Error e in
  p.open_txns <- p.open_txns - 1;
  match result with
  | Ok () ->
      let us = now_us () -. t0 and ticks = float_of_int (Sched.now () - k0) in
      if read then begin
        p.reads <- p.reads + 1;
        Stats.push p.read_us us;
        Stats.push p.read_ticks ticks
      end
      else begin
        p.commits <- p.commits + 1;
        Stats.push p.txn_us us;
        Stats.push p.txn_ticks ticks
      end
  | Error e -> fail p (Printexc.to_string e)

(* A planned transaction the round never started. *)
let unstarted p reason =
  p.attempted <- p.attempted + 1;
  fail p reason

(* After a round stopped early: of its [unsettled] planned transactions,
   those still open fail, and the rest were never started. *)
let abandon p ~unsettled =
  for _ = 1 to unsettled - p.open_txns do
    unstarted p "not started when the round stopped"
  done;
  for _ = 1 to p.open_txns do
    fail p "open when the round stopped"
  done;
  p.open_txns <- 0

(* Run [f] under a hard wall-clock deadline: past it, an alarm raises out
   of whatever fiber is running, every 0.2 s until [f] has returned, so
   neither a wedged scheduler nor a fiber spinning forever (nor a handler
   swallowing one alarm) can stall the benchmark. *)
let bounded ~wall_deadline f =
  let secs = wall_deadline -. Unix.gettimeofday () in
  if secs <= 0. then Error "no time left before the wall deadline"
  else begin
    let armed = ref true in
    let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if !armed then raise Wall_deadline)) in
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.2; it_value = secs });
    (* disarm inside the handler's scope, so a late alarm cannot escape *)
    let r =
      try
        f ();
        armed := false;
        Ok ()
      with e ->
        armed := false;
        Error
          (match e with
          | Wall_deadline -> "wall deadline hit"
          | Sched.Stuck n -> Printf.sprintf "scheduler wedged with %d fibers blocked" n
          | e -> Printexc.to_string e)
    in
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm old;
    r
  end

(* A span ending now; [start] was taken earlier, e.g. at a transaction
   body's end. *)
let add_span p name ~txn (t0, k0) =
  p.spans <- { name; txn; t0; t1 = now_us (); k0; k1 = Sched.now () } :: p.spans

let span p name ~txn f =
  if not p.traced then f ()
  else begin
    let start = (now_us (), Sched.now ()) in
    let r = f () in
    add_span p name ~txn start;
    r
  end

let counter_delta ~before ~after name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  get after - get before

let sample_versions p counters =
  let live = List.fold_left (fun acc c -> acc + Metrics.value c) 0 counters in
  if live > p.versions_max then p.versions_max <- live

(* Attach the in-memory sink to an existing trace: it only stamps each
   record with wall clock and keeps it. Emission never yields, so a traced
   run schedules exactly like an untraced one. *)
let attach p ~src tr =
  if p.traced then begin
    Trace.add_sink tr (fun r -> if p.recording then p.events <- (now_us (), src, r) :: p.events);
    Trace.set_enabled tr true
  end

let note_sql p text = if p.traced then p.sql <- text :: p.sql

(* Loopback taps: keep every byte each endpoint writes, to count frames and
   replay them through the wire decoder after the round. *)
let tap p (c : Transport.conn) =
  let buf = Buffer.create 1024 in
  p.wire <- buf :: p.wire;
  {
    c with
    Transport.write =
      (fun s ->
        if p.recording then Buffer.add_string buf s;
        c.write s);
  }

let tap_dialer p (d : Transport.dialer) =
  if not p.traced then d else { d with Transport.dial = (fun () -> tap p (d.dial ())) }

let tap_listener p (l : Transport.listener) =
  if not p.traced then l
  else { l with Transport.accept = (fun () -> Option.map (tap p) (l.accept ())) }

(* --- per-layer summary ------------------------------------------------- *)

(* Median wall µs per call of [pass], which makes [calls] calls: repeated
   for at least 3 passes and up to 20 ms. *)
let us_per_call calls pass =
  if calls = 0 then 0.
  else begin
    let samples = Stats.vec () in
    let stop = now_us () +. 20_000. in
    let rec go i =
      if i < 3 || (i < 50 && now_us () < stop) then begin
        let t0 = now_us () in
        pass ();
        Stats.push samples ((now_us () -. t0) /. float_of_int calls);
        go (i + 1)
      end
    in
    go 0;
    Stats.median (Stats.to_array samples)
  end

let frames_of s =
  let rec go pos acc =
    match Wire.decode_framed s ~pos with
    | Wire.Frame (_, next) -> go next (acc + 1)
    | Wire.Partial | Wire.Corrupt _ -> acc
  in
  go 0 0

(* Inputs a workload hands over besides the probe itself. [counters] are
   the summed registry deltas of every engine and coordinator over the
   measured phase; [hists] the coordinators' 2PC phase histograms. *)
type obs = {
  counters : (string * int) list;
  hists : (string * (int * int) list) list;
  log : Log_record.t list;  (** stable log records of the round *)
  redo : int;
  undo : int;
  coord : Ivdb_coord.Coord.stats option;
}

let layers p obs =
  let commits = float_of_int (max 1 p.commits) in
  let per_txn x = float_of_int x /. commits in
  let per_ktxn x = 1000. *. per_txn x in
  let get n = try List.assoc n obs.counters with Not_found -> 0 in
  let pct xs q = Stats.or_zero (Stats.percentile (Stats.to_array xs) q) in
  (* spans by name, on both clocks *)
  let span_us = Hashtbl.create 16 and span_ticks = Hashtbl.create 16 in
  let vec_of tbl n =
    match Hashtbl.find_opt tbl n with
    | Some v -> v
    | None ->
        let v = Stats.vec () in
        Hashtbl.replace tbl n v;
        v
  in
  List.iter
    (fun s ->
      Stats.push (vec_of span_us s.name) (s.t1 -. s.t0);
      Stats.push (vec_of span_ticks s.name) (float_of_int (s.k1 - s.k0)))
    p.spans;
  let sp_us n q = pct (vec_of span_us n) q in
  let sp_ticks n q = pct (vec_of span_ticks n) q in
  (* engine and coordinator events *)
  let n_acquire = ref 0 and n_wait = ref 0 and n_deadlock = ref 0 in
  let n_delta = ref 0 and n_create = ref 0 and n_force = ref 0 in
  let n_append = ref 0 and append_bytes = ref 0 in
  let batches = Stats.vec () in
  let waits = Hashtbl.create 64 and wait_ticks = Stats.vec () in
  let requests = Hashtbl.create 64 in
  let req_ticks = Stats.vec () and service_us = Stats.vec () in
  List.iter
    (fun (wall, src, (r : Trace.record)) ->
      match r.event with
      | Trace.Lock_acquire _ -> incr n_acquire
      | Trace.Lock_wait { txn; name; _ } ->
          incr n_wait;
          Hashtbl.replace waits (src, txn, name) r.tick
      | Trace.Lock_grant { txn; name; _ } -> (
          match Hashtbl.find_opt waits (src, txn, name) with
          | Some t0 ->
              Hashtbl.remove waits (src, txn, name);
              Stats.push wait_ticks (float_of_int (r.tick - t0))
          | None -> ())
      | Trace.Deadlock_victim _ -> incr n_deadlock
      | Trace.View_delta _ -> incr n_delta
      | Trace.Group_create _ -> incr n_create
      | Trace.Wal_force _ -> incr n_force
      | Trace.Batch_flush { batch; _ } -> Stats.push batches (float_of_int batch)
      | Trace.Wal_append { bytes; _ } ->
          incr n_append;
          append_bytes := !append_bytes + bytes
      | Trace.Net_request { conn; seq; _ } ->
          Hashtbl.replace requests (src, conn, seq) wall
      | Trace.Net_response { conn; seq; ticks; _ } -> (
          Stats.push req_ticks (float_of_int ticks);
          match Hashtbl.find_opt requests (src, conn, seq) with
          | Some w0 ->
              Hashtbl.remove requests (src, conn, seq);
              Stats.push service_us (wall -. w0)
          | None -> ())
      | _ -> ())
    (List.rev p.events);
  (* replays of captured inputs through the public codecs *)
  let encoded = List.map Log_record.encode obs.log in
  let n_log = List.length obs.log in
  let wal_encode_us =
    us_per_call n_log (fun () -> List.iter (fun r -> ignore (Log_record.encode r)) obs.log)
  in
  let wal_decode_us =
    us_per_call n_log (fun () -> List.iter (fun s -> ignore (Log_record.decode s)) encoded)
  in
  let sql_parse_us =
    us_per_call (List.length p.sql) (fun () ->
        List.iter (fun s -> ignore (Ivdb_sql.Sql_parser.parse s)) p.sql)
  in
  let streams = List.map Buffer.contents p.wire in
  let frames = List.fold_left (fun acc s -> acc + frames_of s) 0 streams in
  let wire_bytes = List.fold_left (fun acc s -> acc + String.length s) 0 streams in
  let wire_decode_us =
    us_per_call frames (fun () -> List.iter (fun s -> ignore (frames_of s)) streams)
  in
  let hist n q =
    match List.assoc_opt n obs.hists with
    | Some cells when cells <> [] ->
        let xs = Stats.vec () in
        List.iter
          (fun (v, c) ->
            for _ = 1 to c do
              Stats.push xs (float_of_int v)
            done)
          cells;
        pct xs q
    | _ -> 0.
  in
  let prepares, fast_path =
    match obs.coord with
    | None -> (0., 0.)
    | Some s ->
        let open Ivdb_coord.Coord in
        ( per_txn s.prepares_sent,
          Stats.ratio
            (float_of_int s.single_shard_commits)
            (float_of_int (s.single_shard_commits + s.cross_shard_commits)) )
  in
  let hits = get "buffer.hit" and misses = get "buffer.miss" in
  [
    ("db.insert_us_p50", "us", sp_us "db.insert" 50.);
    ("db.delete_us_p50", "us", sp_us "db.delete" 50.);
    ("db.commit_us_p50", "us", sp_us "db.commit" 50.);
    ("db.commit_us_p99", "us", sp_us "db.commit" 99.);
    ("db.commit_ticks_p50", "ticks", sp_ticks "db.commit" 50.);
    ("db.read_us_p50", "us", sp_us "db.read" 50.);
    ("db.read_ticks_p50", "ticks", sp_ticks "db.read" 50.);
    ("db.retries_per_ktxn", "1/ktxn", per_ktxn (get "txn.retry"));
    ("core.view_deltas_per_txn", "1/txn", per_txn !n_delta);
    ("core.group_creates_per_ktxn", "1/ktxn", per_ktxn !n_create);
    ("lock.acquires_per_txn", "1/txn", per_txn !n_acquire);
    ("lock.waits_per_ktxn", "1/ktxn", per_ktxn !n_wait);
    ("lock.deadlocks_per_ktxn", "1/ktxn", per_ktxn !n_deadlock);
    ("lock.wait_ticks_p50", "ticks", pct wait_ticks 50.);
    ("lock.wait_ticks_p99", "ticks", pct wait_ticks 99.);
    ("commit.forces_per_txn", "1/txn", per_txn !n_force);
    ("commit.batch_mean", "txn", Stats.or_zero (Stats.mean (Stats.to_array batches)));
    ("commit.stall_ticks_per_txn", "ticks", per_txn (get "commit.stall_ticks"));
    ("mvcc.versions_live_max", "count", float_of_int p.versions_max);
    ("wal.appends_per_txn", "1/txn", per_txn !n_append);
    ( "wal.bytes_per_append",
      "bytes",
      Stats.ratio (float_of_int !append_bytes) (float_of_int !n_append) );
    ("wal.encode_us", "us", wal_encode_us);
    ("wal.decode_us", "us", wal_decode_us);
    ("buf.hit_ratio", "ratio", Stats.ratio (float_of_int hits) (float_of_int (hits + misses)));
    ("buf.misses_per_txn", "1/txn", per_txn misses);
    ("buf.evictions_per_txn", "1/txn", per_txn (get "buffer.evict"));
    ("buf.writebacks_per_txn", "1/txn", per_txn (get "buffer.writeback"));
    ("disk.reads_per_txn", "1/txn", per_txn (get "disk.read"));
    ("disk.writes_per_txn", "1/txn", per_txn (get "disk.write"));
    ("recovery.redo_records", "count", float_of_int obs.redo);
    ("recovery.undo_records", "count", float_of_int obs.undo);
    ("sql.parse_us", "us", sql_parse_us);
    ("wire.frames_per_txn", "1/txn", per_txn frames);
    ("wire.bytes_per_txn", "bytes", per_txn wire_bytes);
    ("wire.decode_us", "us", wire_decode_us);
    ("server.request_ticks_p50", "ticks", pct req_ticks 50.);
    ("server.request_ticks_p99", "ticks", pct req_ticks 99.);
    ("server.service_us_p50", "us", pct service_us 50.);
    ("coord.insert_us_p50", "us", sp_us "coord.insert" 50.);
    ("coord.commit_us_p50", "us", sp_us "coord.commit" 50.);
    ("coord.commit_us_p99", "us", sp_us "coord.commit" 99.);
    ("coord.commit_ticks_p50", "ticks", sp_ticks "coord.commit" 50.);
    ("coord.commit_ticks_p99", "ticks", sp_ticks "coord.commit" 99.);
    ("coord.prepare_ticks_p50", "ticks", hist "coord.prepare.ticks" 50.);
    ("coord.prepare_ticks_p99", "ticks", hist "coord.prepare.ticks" 99.);
    ("coord.decision_force_ticks_p50", "ticks", hist "coord.decision_force.ticks" 50.);
    ("coord.decide_ticks_p50", "ticks", hist "coord.decide.ticks" 50.);
    ("coord.prepares_per_txn", "1/txn", prepares);
    ("coord.fast_path_ratio", "ratio", fast_path);
  ]

(* The round's spans and wall-stamped events as JSON lines. *)
let dump p =
  let spans =
    List.rev_map
      (fun s ->
        Printf.sprintf
          "{\"span\":%S,\"txn\":%d,\"t0_us\":%.1f,\"t1_us\":%.1f,\"tick0\":%d,\"tick1\":%d}"
          s.name s.txn s.t0 s.t1 s.k0 s.k1)
      p.spans
  in
  let events =
    List.rev_map
      (fun (wall, src, r) ->
        Printf.sprintf "{\"src\":%S,\"wall_us\":%.1f,\"event\":%s}" src wall
          (Trace.to_json r))
      p.events
  in
  spans @ events

(* --- one round's result ------------------------------------------------- *)

type round = {
  setup_s : float;  (** schema, preload and cluster start *)
  measured_s : float;  (** wall seconds of the measured phase *)
  ticks : int;  (** simulated ticks of the measured phase *)
  commits : int;  (** committed write transactions *)
  reads : int;  (** completed reader transactions *)
  attempted : int;
  failed : int;
  txn_us : float array;
  txn_ticks : float array;
  read_us : float array;
  read_ticks : float array;
  log_bytes : int;  (** WAL bytes appended in the measured phase *)
  recover_s : float;  (** wall seconds of crash + recovery *)
  gates : (string * bool) list;
  errors : string list;
  inputs : string;  (** digest of the generated inputs *)
  layers : (string * string * float) list;  (** traced rounds only *)
  dump : string list;  (** traced rounds only *)
}

let finish (p : t) ~setup_s ~measured_s ~ticks ~log_bytes ~recover_s ~gates ~inputs obs =
  {
    setup_s;
    measured_s;
    ticks;
    commits = p.commits;
    reads = p.reads;
    attempted = p.attempted;
    failed = p.failed;
    txn_us = Stats.to_array p.txn_us;
    txn_ticks = Stats.to_array p.txn_ticks;
    read_us = Stats.to_array p.read_us;
    read_ticks = Stats.to_array p.read_ticks;
    log_bytes;
    recover_s;
    gates;
    errors = List.rev p.errors;
    inputs;
    layers = (if p.traced then layers p (obs ()) else []);
    dump = (if p.traced then dump p else []);
  }

(* Everything in a round that runs on the simulated clock: equal for the
   same seed, traced or not. *)
let tick_fingerprint r =
  (r.ticks, r.commits, r.reads, r.attempted, r.failed, r.txn_ticks, r.read_ticks, r.log_bytes)

let digest_inputs plan = Digest.to_hex (Digest.string (Marshal.to_string plan []))
