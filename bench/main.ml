(* Benchmark harness: regenerates every experiment table of the
   reproduction (E1-E19, see DESIGN.md / EXPERIMENTS.md) plus the bechamel
   micro-benchmarks (M0).

   Usage: main.exe [e1|...|e19|micro|commit-quick]...; no arguments runs
   every experiment once. e11 is the commit bench: E11-E19 in one pass,
   writing BENCH_commit.json; commit-quick is its quick variant, run by
   `dune runtest`. *)

module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Workload = Ivdb.Workload
module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Row = Ivdb_relation.Row
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Maintain = Ivdb_core.Maintain
module Group_gc = Ivdb_core.Group_gc
module Txn = Ivdb_txn.Txn
module Wal = Ivdb_wal.Wal
module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace
module Stats = Ivdb_util.Stats
module Rng = Ivdb_util.Rng
module Fault = Ivdb_storage.Fault
module Sched = Ivdb_sched.Sched
module Coord = Ivdb_coord.Coord
module Server = Ivdb_server.Server
module Net_workload = Ivdb_client.Net_workload

(* --- cells and tables ------------------------------------------------------ *)

(* One named field of an experiment cell: [col] is its table column, [key]
   its BENCH_commit.json member, and either may be absent. The driver
   renders a cell's table row and its JSON object from the same field
   list, so the two cannot disagree. A field with neither is a note line
   printed under the table. *)
type field = {
  col : string option;
  key : string option;
  text : string;
  json : string;
}

let field ?col ?key text json = { col; key; text; json }
let int ?col ?key n = field ?col ?key (string_of_int n) (string_of_int n)
let str ?col ?key s = field ?col ?key s ("\"" ^ s ^ "\"")
let bool ?col ?key b = field ?col ?key (string_of_bool b) (string_of_bool b)

(* [p] decimals in the table, [json] (default [p]) in the JSON *)
let num ?col ?key ?json p x =
  let j = Option.value json ~default:p in
  field ?col ?key (Printf.sprintf "%.*f" p x) (Printf.sprintf "%.*f" j x)

let note line = field line ""

(* the columns most workload cells share *)
let mpl_f n = int ~col:"mpl" ~key:"mpl" n
let commits n = int ~col:"commits" ~key:"committed" n
let tput x = num ~col:"tput/1k ticks" ~key:"throughput_per_1k_ticks" 2 ~json:3 x
let lat_mean x = num ~col:"lat mean" ~key:"mean_latency_ticks" 1 x
let lat_p95 x = num ~col:"lat p95" ~key:"p95_latency_ticks" 1 x
let digest_match = field ~col:"digest" ~key:"digest_match" "match" "true"

type experiment = {
  name : string;
  title : quick:bool -> string;
  section : string option;
      (* BENCH_commit.json member; the experiments that have one form the
         commit bench *)
  cells : quick:bool -> field list list;
}

let experiment ?section name title cells =
  { name; title = (fun ~quick:_ -> title); section; cells }

let print_table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun i cell -> Printf.sprintf "%*s" (List.nth widths i) cell)
         row)
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  print_endline (line header);
  print_endline (String.make (String.length (line header)) '-');
  List.iter (fun r -> print_endline (line r)) rows;
  flush stdout

(* Run [e]: print its table (one row per cell with columns) and its notes,
   and return its JSON objects (one per cell with keys). *)
let run ~quick e =
  let cells = e.cells ~quick in
  let rows =
    List.filter_map
      (fun cell ->
        match List.filter (fun f -> f.col <> None) cell with
        | [] -> None
        | fs -> Some (List.map (fun f -> (Option.get f.col, f.text)) fs))
      cells
  in
  (match rows with
  | [] -> ()
  | first :: _ ->
      let header = List.map fst first in
      if List.exists (fun r -> List.map fst r <> header) rows then
        invalid_arg (e.name ^ ": cells disagree on their columns");
      print_table ~title:(e.title ~quick) ~header (List.map (List.map snd) rows));
  List.iter
    (fun f -> if f.col = None && f.key = None then print_endline f.text)
    (List.concat cells);
  flush stdout;
  List.filter_map
    (fun cell ->
      match
        List.filter_map
          (fun f -> Option.map (fun k -> Printf.sprintf "\"%s\": %s" k f.json) f.key)
          cell
      with
      | [] -> None
      | members -> Some ("    {" ^ String.concat ", " members ^ "}"))
    cells

let fatal fmt =
  Printf.ksprintf (fun s -> prerr_endline ("FATAL: " ^ s); exit 1) fmt

(* --- shared fixtures --------------------------------------------------------- *)

let strategy_name = Maintain.strategy_to_string

let locking_name = function
  | Workload.Key_range -> "key-range"
  | Workload.Coarse_table -> "table S lock"
  | Workload.Snapshot -> "mvcc snapshot"

let group_commit = Txn.Group { max_batch = 32; max_wait_ticks = 50 }

(* The closed loop most cells run: [Workload.default] (escrow, 20 groups,
   zipf 0.99, 10% deletes, zero I/O cost) with the cell's seed, mpl and
   commit mode, and a transaction budget split over the workers. Cells
   override the rest with a record update. *)
let closed_loop ?commit_mode ~seed ~mpl ~budget () =
  let config = Workload.default.Workload.config in
  let config =
    match commit_mode with
    | None -> config
    | Some commit_mode -> { config with Database.commit_mode }
  in
  { Workload.default with seed; mpl; txns_per_worker = max 1 (budget / mpl); config }

let metric r name =
  match List.assoc_opt name r.Workload.metrics with Some v -> v | None -> 0

let per_txn r x = float_of_int x /. float_of_int (max 1 r.Workload.committed)

(* The paper's running example: sales(id, product, qty) with an escrow
   SUM(qty) view per product, on a zero-I/O-cost engine. *)
let sales_view ?(pool_capacity = Database.default_config.pool_capacity) () =
  let config =
    { Database.default_config with read_cost = 0; write_cost = 0; pool_capacity }
  in
  let db = Database.create ~config () in
  let col name = { Schema.name; ty = Value.TInt; nullable = false } in
  let t =
    Database.create_table db ~name:"sales" ~cols:[ col "id"; col "product"; col "qty" ]
  in
  let v =
    Database.create_view db ~name:"by_product" ~group_by:[ "product" ]
      ~aggs:[ View_def.Sum (Expr.col (Database.schema db t) "qty") ]
      ~source:(Database.From (t, None))
      ~strategy:Maintain.Escrow ()
  in
  (db, t, v)

(* --- E1: read benefit of indexed views -------------------------------------- *)

(* Query latency: indexed-view point lookup vs aggregation on demand,
   growing the base table. The paper's motivation: the view turns an O(N)
   aggregation into an O(log N) lookup. *)
let e1 ~quick:_ =
  let cell n =
    let db, t, v = sales_view ~pool_capacity:4096 () in
    let rng = Rng.create 7 in
    Database.transact db (fun tx ->
        for k = 1 to n do
          ignore
            (Table.insert db tx t
               [| Value.Int k; Value.Int (Rng.int rng 100); Value.Int (1 + Rng.int rng 9) |])
        done);
    let time_it iters f =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        f ()
      done;
      (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e6
    in
    let lookup_us =
      time_it 2000 (fun () ->
          ignore (Query.view_lookup db None v [| Value.Int (Rng.int rng 100) |]))
    in
    let ondemand_us =
      time_it (max 3 (20000 / n)) (fun () ->
          ignore (Query.on_demand_aggregate db None (Database.view_def db v)))
    in
    [
      int ~col:"base rows" n;
      num ~col:"view lookup (us)" 2 lookup_us;
      num ~col:"on-demand agg (us)" 2 ondemand_us;
      num ~col:"speedup" 1 (ondemand_us /. lookup_us);
    ]
  in
  List.map cell [ 1_000; 5_000; 20_000; 50_000 ]

(* --- E2: writer throughput under contention ---------------------------------- *)

let e2 ~quick:_ =
  let cell strategy mpl =
    let r = Workload.run { (closed_loop ~seed:2 ~mpl ~budget:256 ()) with strategy } in
    [
      str ~col:"strategy" (strategy_name strategy);
      mpl_f mpl;
      commits r.Workload.committed;
      tput r.Workload.throughput;
      num ~col:"waits/txn" 2 (per_txn r r.Workload.lock_waits);
      int ~col:"deadlocks" r.Workload.deadlocks;
      int ~col:"retries" r.Workload.retries;
      lat_mean r.Workload.mean_latency;
      lat_p95 r.Workload.p95_latency;
    ]
  in
  List.concat_map
    (fun s -> List.map (cell s) [ 1; 2; 4; 8; 16; 32 ])
    [ Maintain.Exclusive; Maintain.Escrow ]

(* --- E3: conflicts vs skew ----------------------------------------------------- *)

let e3 ~quick:_ =
  let cell strategy theta =
    let r =
      Workload.run
        { (closed_loop ~seed:3 ~mpl:16 ~budget:256 ()) with strategy; theta; n_groups = 50 }
    in
    let per100 x = 100. *. float_of_int x /. float_of_int (max 1 r.Workload.committed) in
    [
      str ~col:"strategy" (strategy_name strategy);
      num ~col:"theta" 2 theta;
      commits r.Workload.committed;
      num ~col:"deadlocks/100" 2 (per100 r.Workload.deadlocks);
      num ~col:"retries/100" 2 (per100 r.Workload.retries);
      num ~col:"waits/100" 2 (per100 r.Workload.lock_waits);
      lat_p95 r.Workload.p95_latency;
    ]
  in
  List.concat_map
    (fun s -> List.map (cell s) [ 0.0; 0.5; 0.9; 0.99; 1.2 ])
    [ Maintain.Exclusive; Maintain.Escrow ]

(* --- E4: maintenance overhead per view ------------------------------------------ *)

let e4 ~quick:_ =
  let cell strategy n_views =
    let r =
      Workload.run
        {
          (closed_loop ~seed:4 ~mpl:1 ~budget:200 ()) with
          strategy;
          delete_fraction = 0.;
          n_views;
          initial_rows = 100;
          config = Database.default_config (* real I/O costs *);
        }
    in
    [
      str ~col:"strategy" (if n_views = 0 then "none" else strategy_name strategy);
      int ~col:"views" n_views;
      commits r.Workload.committed;
      num ~col:"ticks/txn" 1 (per_txn r r.Workload.ticks);
      num ~col:"log B/txn" 1 (per_txn r (metric r "log.bytes"));
      num ~col:"IOs/txn" 2 (per_txn r (metric r "disk.read" + metric r "disk.write"));
    ]
  in
  cell Maintain.Escrow 0
  :: List.concat_map
       (fun s -> List.map (cell s) [ 1; 2; 4 ])
       [ Maintain.Escrow; Maintain.Deferred ]

(* --- E5: deferred refresh amortization -------------------------------------------- *)

let e5 ~quick:_ =
  let cell batch =
    let spec = { Workload.default with seed = 5; strategy = Maintain.Deferred } in
    let db, sales, views = Workload.setup spec in
    let v = List.hd views in
    (* fold the preload's deltas away so only the batch is measured *)
    Database.transact db (fun tx -> ignore (Query.refresh db tx v));
    let rng = Rng.create 55 in
    for k = 1 to batch do
      Database.transact db (fun tx ->
          ignore
            (Table.insert db tx sales
               [|
                 Value.Int (1000 + k);
                 Value.Int (Rng.int rng 20);
                 Value.Int 1;
                 Value.Float 1.0;
               |]))
    done;
    let pending = Query.staleness db v in
    let m = Database.metrics db in
    let touched_before = Metrics.get m "view.exclusive_update" in
    let t0 = Unix.gettimeofday () in
    let applied = Database.transact db (fun tx -> Query.refresh db tx v) in
    let us = (Unix.gettimeofday () -. t0) *. 1e6 in
    let touched = Metrics.get m "view.exclusive_update" - touched_before in
    [
      int ~col:"batch" batch;
      int ~col:"staleness" pending;
      int ~col:"deltas applied" applied;
      int ~col:"view rows touched" touched;
      num ~col:"refresh us" 1 us;
      num ~col:"us/delta" 2 (us /. float_of_int (max 1 applied));
    ]
  in
  List.map cell [ 1; 10; 100; 1000 ]

(* --- E6: recovery ------------------------------------------------------------------- *)

let e6 ~quick:_ =
  let cell ?(ckpt = false) txns =
    let spec =
      { (closed_loop ~seed:6 ~mpl:4 ~budget:txns ()) with delete_fraction = 0.15 }
    in
    let db, sales, views = Workload.setup spec in
    let _ = Workload.run_on db sales views spec in
    if ckpt then Database.checkpoint db (* sharp checkpoint + log truncation *);
    (* leave some losers in flight, force their records, crash *)
    let mgr = Database.mgr db in
    for k = 0 to 4 do
      let tx = Txn.begin_txn mgr in
      ignore
        (Table.insert db tx sales
           [| Value.Int (-k - 1); Value.Int 1; Value.Int 1; Value.Float 1. |])
    done;
    Wal.force (Database.wal db) (Wal.last_lsn (Database.wal db));
    let t0 = Unix.gettimeofday () in
    let db' = Database.crash db in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let m = Database.metrics db' in
    [
      str ~col:"txns" (if ckpt then string_of_int txns ^ " +ckpt" else string_of_int txns);
      int ~col:"stable log recs" (Metrics.get m "recovery.stable_records");
      int ~col:"redo applied" (Metrics.get m "recovery.redo_applied");
      int ~col:"losers undone" (Metrics.get m "recovery.losers");
      num ~col:"recovery ms" 2 ms;
      int ~col:"rows after" (Table.row_count db' (Database.table db' "sales"));
      bool ~col:"view consistent"
        (Workload.check_consistency db' (Database.view db' "sales_by_product_0"));
    ]
  in
  List.concat_map (fun n -> [ cell n; cell ~ckpt:true n ]) [ 200; 1000; 3000 ]

(* --- E7: reader locking granularity -------------------------------------------------- *)

let e7 ~quick:_ =
  let cell reader_locking =
    let r =
      Workload.run
        {
          (closed_loop ~seed:7 ~mpl:8 ~budget:320 ()) with
          read_fraction = 0.5;
          reader_locking;
          n_groups = 50;
          theta = 0.5;
        }
    in
    [
      str ~col:"reader locking" (locking_name reader_locking);
      commits r.Workload.committed;
      int ~col:"readers" r.Workload.committed_readers;
      int ~col:"writers" (r.Workload.committed - r.Workload.committed_readers);
      int ~col:"lock waits" r.Workload.lock_waits;
      int ~col:"deadlocks" r.Workload.deadlocks;
      lat_mean r.Workload.mean_latency;
      lat_p95 r.Workload.p95_latency;
    ]
  in
  List.map cell [ Workload.Key_range; Workload.Coarse_table ]

(* --- E8: group lifecycle churn --------------------------------------------------------- *)

let e8 ~quick:_ =
  let cell create_mode =
    let spec =
      {
        (closed_loop ~seed:8 ~mpl:12 ~budget:480 ()) with
        create_mode;
        ops_per_txn = 3;
        delete_fraction = 0.5;
        n_groups = 24;
        theta = 0.0;
        initial_rows = 0;
        gc_every = Some 5;
      }
    in
    let db, sales, views = Workload.setup spec in
    let r = Workload.run_on db sales views spec in
    let removed = Database.gc db in
    let zero_left =
      Group_gc.zero_count_rows
        (Database.Internal.view_rt db (Database.Internal.view_id (List.hd views)))
    in
    [
      str ~col:"creation"
        (match create_mode with
        | Maintain.System_txn -> "system txn"
        | Maintain.User_txn -> "user txn");
      commits r.Workload.committed;
      int ~col:"creates" (metric r "view.group_create" + metric r "view.group_create_user");
      int ~col:"gc removed" (metric r "view.gc_removed" + removed);
      int ~col:"zero rows left" zero_left;
      int ~col:"lock waits" r.Workload.lock_waits;
      int ~col:"deadlocks" r.Workload.deadlocks;
      lat_p95 r.Workload.p95_latency;
    ]
  in
  List.map cell [ Maintain.System_txn; Maintain.User_txn ]

(* --- E9: lock escalation --------------------------------------------------------------- *)

let e9 ~quick:_ =
  let cell threshold rows_n =
    let config =
      {
        Database.default_config with
        read_cost = 0;
        write_cost = 0;
        pool_capacity = 2048;
        escalation_threshold = threshold;
      }
    in
    let db = Database.create ~config () in
    let t =
      Database.create_table db ~name:"bulk"
        ~cols:
          [
            { Schema.name = "id"; ty = Value.TInt; nullable = false };
            { Schema.name = "v"; ty = Value.TInt; nullable = false };
          ]
    in
    let t0 = Unix.gettimeofday () in
    Database.transact db (fun tx ->
        for k = 1 to rows_n do
          ignore (Table.insert db tx t [| Value.Int k; Value.Int k |])
        done);
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let m = Database.metrics db in
    [
      str ~col:"threshold"
        (match threshold with None -> "off" | Some n -> string_of_int n);
      int ~col:"rows" rows_n;
      int ~col:"lock acquisitions" (Metrics.get m "lock.acquire");
      int ~col:"escalations" (Metrics.get m "lock.escalation");
      num ~col:"wall ms" 2 ms;
    ]
  in
  List.concat_map (fun n -> [ cell None n; cell (Some 100) n ]) [ 1_000; 5_000; 20_000 ]

(* --- E10: bounds reads vs blocking reads ------------------------------------------------- *)

let e10 ~quick:_ =
  let cell mode =
    let db, t, v = sales_view () in
    Database.transact db (fun tx ->
        ignore (Table.insert db tx t [| Value.Int 0; Value.Int 1; Value.Int 1 |]));
    let lat = Stats.create () in
    let widths = Stats.create () in
    let reads = 60 in
    Sched.run ~seed:10 (fun () ->
        (* writers hammer group 1, holding E locks across yields *)
        for w = 1 to 6 do
          ignore
            (Sched.spawn (fun () ->
                 for k = 1 to 40 do
                   Database.transact db (fun tx ->
                       ignore
                         (Table.insert db tx t
                            [| Value.Int ((w * 1000) + k); Value.Int 1; Value.Int 1 |]);
                       Sched.yield ();
                       Sched.yield ())
                 done))
        done;
        (* one reader samples the hot group *)
        ignore
          (Sched.spawn (fun () ->
               for _ = 1 to reads do
                 let t0 = Sched.now () in
                 (match mode with
                 | `Blocking ->
                     Database.transact db (fun tx ->
                         ignore (Query.view_lookup db (Some tx) v [| Value.Int 1 |]))
                 | `Bounds -> (
                     match Query.view_lookup_bounds db v [| Value.Int 1 |] with
                     | Some (lo, hi) ->
                         Stats.add widths (Value.to_float hi.(1) -. Value.to_float lo.(1))
                     | None -> ()));
                 Stats.add lat (float_of_int (Sched.now () - t0));
                 Sched.yield ()
               done)));
    [
      str ~col:"reader mode"
        (match mode with `Blocking -> "serializable lookup" | `Bounds -> "escrow bounds");
      int ~col:"reads" reads;
      num ~col:"lat mean (ticks)" 1 (Stats.mean lat);
      num ~col:"lat p95" 1 (if Stats.count lat = 0 then 0. else Stats.percentile lat 95.);
      num ~col:"avg interval width" 2
        (if Stats.count widths = 0 then 0. else Stats.mean widths);
    ]
  in
  [ cell `Blocking; cell `Bounds ]

(* --- E11: commit path — per-commit force vs group commit vs async ----------------------- *)

(* Escrow removes the lock bottleneck on the hot aggregate rows, so with a
   private force per commit the 100-tick log force is the throughput
   ceiling; batching commits behind the coordinator amortizes it. *)
let e11_budget ~quick = if quick then 128 else 512

let e11 ~quick =
  let mpls = if quick then [ 8; 16 ] else [ 1; 4; 8; 16; 32 ] in
  let budget = e11_budget ~quick in
  let cell (mode_name, commit_mode) mpl =
    let r = Workload.run (closed_loop ~commit_mode ~seed:11 ~mpl ~budget ()) in
    [
      str ~col:"commit mode" ~key:"mode" mode_name;
      mpl_f mpl;
      commits r.Workload.committed;
      tput r.Workload.throughput;
      int ~col:"forces" ~key:"forces" r.Workload.forces;
      num ~col:"forces/commit" ~key:"forces_per_commit" 2 ~json:4
        (per_txn r r.Workload.forces);
      num ~col:"mean batch" ~key:"mean_batch" 2 r.Workload.mean_batch;
      num ~col:"stall/commit" ~key:"stall_ticks_per_commit" 1 ~json:2
        (per_txn r (metric r "commit.stall_ticks"));
    ]
  in
  let cells =
    List.concat_map
      (fun m -> List.map (cell m) mpls)
      [ ("sync", Txn.Sync); ("group", group_commit); ("async", Txn.Async) ]
  in
  (* tracing overhead: the group-commit cell at the highest mpl, structured
     trace off vs on (events counted, then discarded). Tick throughput is
     deterministic and must be identical either way — tracing never touches
     the simulated clock — so the interesting deltas are event volume and
     wall time. *)
  let mpl = List.fold_left max 1 mpls in
  let trace_cell on =
    let spec = closed_loop ~commit_mode:group_commit ~seed:11 ~mpl ~budget () in
    let db, sales, views = Workload.setup spec in
    let events = ref 0 in
    if on then begin
      let tr = Database.trace db in
      Trace.add_sink tr (fun _ -> incr events);
      Trace.set_enabled tr true
    end;
    let r = Workload.run_on db sales views spec in
    ( r,
      !events,
      [
        str ~key:"mode" "group";
        int ~key:"mpl" mpl;
        str ~key:"trace" (if on then "on" else "off");
        int ~key:"committed" r.Workload.committed;
        num ~key:"throughput_per_1k_ticks" 3 r.Workload.throughput;
        int ~key:"events" !events;
        num ~key:"wall_s" 4 r.Workload.wall_s;
      ] )
  in
  let r_off, _, off = trace_cell false in
  let r_on, events, on = trace_cell true in
  cells
  @ [
      off;
      on;
      [
        note
          (Printf.sprintf
             "\ntracing overhead (group, mpl %d): off %.2f tput / %.3fs wall, on \
              %.2f tput / %.3fs wall (%d events)"
             mpl r_off.Workload.throughput r_off.Workload.wall_s
             r_on.Workload.throughput r_on.Workload.wall_s events);
      ];
    ]

(* --- E12: recovery under injected faults ------------------------------------------------ *)

(* Run the workload under each fault mode, recover from the (injected or
   end-of-run) crash, and measure what recovery had to do. "rate" is the
   transient-error probability for the error rows, 0 for the crash rows;
   recovery time is wall clock. Every cell also re-checks invariant V1. *)
let e12 ~quick =
  let spec =
    {
      (closed_loop ~seed:23 ~mpl:8 ~budget:(if quick then 96 else 384) ()) with
      checkpoint_every = Some 10;
      config = { Workload.default.Workload.config with Database.pool_capacity = 64 };
    }
  in
  let cell (name, rate, fcfg) =
    let db, sales, views = Workload.setup spec in
    (* armed after setup: the preload is never the victim *)
    if Fault.enabled_in fcfg then Database.install_fault db fcfg;
    let r = Workload.run_on db sales views spec in
    let t0 = Unix.gettimeofday () in
    let db' = Database.crash db in
    let recov_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let get n = Metrics.get (Database.metrics db') n in
    let crashed = r.Workload.crashed in
    [
      str ~col:"fault" ~key:"fault" name;
      num ~col:"rate" ~key:"rate" 2 rate;
      commits r.Workload.committed;
      field ~col:"crashed" ~key:"crashed"
        (if crashed then "yes" else "no")
        (string_of_bool crashed);
      num ~col:"recov ms" ~key:"recovery_ms" 2 ~json:3 recov_ms;
      int ~col:"redo" ~key:"redo_applied" (get "recovery.redo_applied");
      int ~col:"torn pg" ~key:"torn_pages" (get "recovery.torn_pages");
      int ~col:"tail drop" ~key:"torn_tail_dropped" (get "wal.torn_tail_dropped");
      int ~col:"losers" ~key:"losers" (get "recovery.losers");
      int ~col:"io retry" ~key:"io_retries" (metric r "buffer.io_retry");
      bool ~col:"consistent" ~key:"consistent"
        (Workload.check_consistency db' (Database.view db' "sales_by_product_0"));
    ]
  in
  let n = Fault.no_faults in
  List.map cell
    [
      ("none", 0., n);
      ( "err-0.05", 0.05,
        { n with fault_seed = 3; read_error_p = 0.05; write_error_p = 0.05 } );
      ( "err-0.20", 0.2,
        { n with fault_seed = 3; read_error_p = 0.2; write_error_p = 0.2 } );
      ("crash-write", 0., { n with crash_at_write = Some 5 });
      ( "torn-write", 0.,
        { n with fault_seed = 1; crash_at_write = Some 5; torn_writes = true } );
      ( "torn-tail", 0.,
        { n with fault_seed = 9; crash_at_force = Some 25; torn_tail = true } );
    ]

(* --- E13: network serving layer ---------------------------------------------------------- *)

(* Throughput/latency of the wire-protocol server under a closed loop of
   client connections: loopback (deterministic) vs real TCP sockets, sync
   vs group commit, plus an overloaded cell where admission control sheds
   with Busy frames. Group commit finally earns its keep here: the batches
   come from genuinely independent client connections. *)
let e13 ~quick =
  let budget = if quick then 64 else 256 in
  let cell (tname, transport) (mode_name, commit_mode) ~mpl ~max_inflight =
    let server_config =
      { Server.default_config with max_inflight; busy_retry_ticks = 50 }
    in
    let r, _db =
      Net_workload.run_net ~transport ~server_config
        (closed_loop ~commit_mode ~seed:11 ~mpl ~budget ())
    in
    [
      str ~col:"transport" ~key:"transport" tname;
      str ~col:"commit mode" ~key:"mode" mode_name;
      int ~col:"clients" ~key:"clients" mpl;
      int ~col:"cap" ~key:"max_inflight" max_inflight;
      commits r.Workload.committed;
      tput r.Workload.throughput;
      num ~col:"p95 lat" ~key:"p95_latency_ticks" 1 r.Workload.p95_latency;
      num ~col:"forces/commit" ~key:"forces_per_commit" 2 ~json:4
        (per_txn r r.Workload.forces);
      num ~col:"mean batch" ~key:"mean_batch" 2 r.Workload.mean_batch;
      int ~col:"shed" ~key:"shed" (metric r "server.shed");
      int ~key:"accepted" (metric r "server.accepted");
      int ~key:"requests" (metric r "server.requests");
      num ~key:"wall_s" 4 r.Workload.wall_s;
    ]
  in
  let sync = ("sync", Txn.Sync) in
  let group = ("group", group_commit) in
  let loopback = ("loopback", Net_workload.Loopback) in
  let tcp = ("tcp", Net_workload.Tcp) in
  let scaling =
    List.concat_map
      (fun mpl ->
        [
          cell loopback sync ~mpl ~max_inflight:64;
          cell loopback group ~mpl ~max_inflight:64;
        ])
      (if quick then [ 4; 8 ] else [ 2; 4; 8; 16 ])
  in
  let tcp_mpl = if quick then 4 else 8 in
  let tcp_cells =
    [
      cell tcp sync ~mpl:tcp_mpl ~max_inflight:64;
      cell tcp group ~mpl:tcp_mpl ~max_inflight:64;
    ]
  in
  (* overload: twice as many clients as admission slots; shed > 0 and the
     run still completes because refused clients back off and retry *)
  let overload = [ cell loopback group ~mpl:16 ~max_inflight:4 ] in
  scaling @ tcp_cells @ overload

(* --- E14: introspection overhead --------------------------------------------------------- *)

(* Cost of the live-introspection plumbing on the E13 closed loop: the rid
   correlation ids ride in every Exec frame unconditionally (wire v2), so
   the measurable knob is the slow-query log. threshold = None turns it
   off entirely; Some 0 is the worst case (every request is "slow": a
   bounded-queue push + a Slow_query trace event per statement). The
   interesting result is the ticks column: the log does no yields, so the
   simulated schedule is identical and the overhead is wall-clock only. *)
let e14 ~quick =
  let budget = if quick then 64 else 256 in
  let mpl = if quick then 4 else 8 in
  let cell name threshold =
    let server_config = { Server.default_config with slow_query_ticks = threshold } in
    let r, db =
      Net_workload.run_net ~server_config
        (closed_loop ~commit_mode:group_commit ~seed:11 ~mpl ~budget ())
    in
    [
      str ~col:"slow log" ~key:"slow_log" name;
      (match threshold with
      | None -> field ~col:"threshold" ~key:"threshold" "-" "null"
      | Some t -> int ~col:"threshold" ~key:"threshold" t);
      int ~col:"clients" ~key:"clients" mpl;
      commits r.Workload.committed;
      int ~col:"ticks" ~key:"ticks" r.Workload.ticks;
      tput r.Workload.throughput;
      int ~col:"slow entries" ~key:"slow_entries"
        (Metrics.get (Database.metrics db) "server.slow_queries");
      num ~col:"wall_s" ~key:"wall_s" 4 r.Workload.wall_s;
    ]
  in
  [ cell "off" None; cell "on (idle)" (Some 1_000_000); cell "on (worst)" (Some 0) ]

(* --- E15: MVCC snapshot readers vs S-lock readers ---------------------------------------- *)

(* The D14 payoff: at high MPL a read-heavy mix over a hot escrow view,
   with readers either taking the paper's per-key RangeS_S locks or running
   as lock-free MVCC snapshots. Snapshot readers never enter the lock
   manager, so reader throughput climbs with MPL instead of queueing
   behind writers' E locks, while writer commit throughput stays within
   noise of the locked baseline. *)
let e15 ~quick =
  let budget = if quick then 128 else 768 in
  let cell reader_locking mpl =
    let r =
      Workload.run
        { (closed_loop ~seed:15 ~mpl ~budget ()) with read_fraction = 0.6; reader_locking }
    in
    let writers = r.Workload.committed - r.Workload.committed_readers in
    let per_1k x = 1000. *. float_of_int x /. float_of_int (max 1 r.Workload.ticks) in
    [
      str ~col:"reader mode" ~key:"reader_mode"
        (match reader_locking with
        | Workload.Key_range -> "s-lock key-range"
        | l -> locking_name l);
      mpl_f mpl;
      commits r.Workload.committed;
      int ~col:"readers" ~key:"readers" r.Workload.committed_readers;
      int ~col:"writers" ~key:"writers" writers;
      num ~col:"reader tput" ~key:"reader_tput_per_1k_ticks" 2 ~json:3
        (per_1k r.Workload.committed_readers);
      num ~col:"writer tput" ~key:"writer_tput_per_1k_ticks" 2 ~json:3 (per_1k writers);
      int ~col:"lock waits" ~key:"lock_waits" r.Workload.lock_waits;
      int ~key:"snapshot_begins" (metric r "txn.snapshot_begin");
      int ~key:"versions_pruned" (metric r "mvcc.versions_pruned");
      lat_mean r.Workload.mean_latency;
      lat_p95 r.Workload.p95_latency;
    ]
  in
  List.concat_map
    (fun mpl -> [ cell Workload.Key_range mpl; cell Workload.Snapshot mpl ])
    (if quick then [ 8; 16 ] else [ 8; 16; 32 ])

(* --- E16: read replicas via WAL shipping ------------------------------------------------ *)

(* A follower attached over a second loopback connection streams the
   primary's WAL while the closed-loop workload runs. The interesting
   numbers: how far the replica trails the primary under write pressure
   (lag, in log records), what the attached follower costs the primary
   (commit throughput with vs without it), and how long after the last
   commit the replica takes to drain the residual lag. Every replicated
   cell ends with a bit-identical state-digest comparison against the
   primary — divergence is a correctness bug and kills the run. *)
let e16 ~quick =
  let budget = if quick then 64 else 256 in
  let spec_for mpl = closed_loop ~commit_mode:group_commit ~seed:16 ~mpl ~budget () in
  let solo mpl =
    let r, _db = Net_workload.run_net ~transport:Net_workload.Loopback (spec_for mpl) in
    [
      field ~col:"follower" ~key:"follower" "no" "false";
      mpl_f mpl;
      commits r.Workload.committed;
      tput r.Workload.throughput;
    ]
    @ List.map
        (fun col -> str ~col "-")
        [ "lag max"; "lag mean"; "batches"; "reconnects"; "catchup"; "digest" ]
  in
  let replicated mpl =
    let r, db, fdb, rep = Net_workload.run_replicated (spec_for mpl) in
    if
      Database.state_digest db <> Database.state_digest fdb
      || Database.replicated_lsn db <> Database.replicated_lsn fdb
    then
      fatal "replica diverged from primary (mpl %d): lsn %d vs %d, digest %s vs %s" mpl
        (Database.replicated_lsn db) (Database.replicated_lsn fdb)
        (Database.state_digest db) (Database.state_digest fdb);
    [
      field ~col:"follower" ~key:"follower" "yes" "true";
      mpl_f mpl;
      commits r.Workload.committed;
      tput r.Workload.throughput;
      int ~col:"lag max" ~key:"lag_max_records" rep.Net_workload.lag_max;
      num ~col:"lag mean" ~key:"lag_mean_records" 2 rep.Net_workload.lag_mean;
      int ~col:"batches" ~key:"ship_batches" rep.Net_workload.ship_batches;
      int ~col:"reconnects" ~key:"reconnects" rep.Net_workload.reconnects;
      int ~col:"catchup" ~key:"catchup_ticks" rep.Net_workload.catchup_ticks;
      digest_match;
    ]
  in
  List.concat_map
    (fun mpl -> [ solo mpl; replicated mpl ])
    (if quick then [ 8 ] else [ 8; 16 ])

(* --- E17: failover — follower promotion under a primary crash --------------------------- *)

(* The replicated workload crashed at a chosen force point: the follower
   final-ships the dead primary's SURVIVING log image (Wal.crash applies
   any pending tear first), then promotes. Reported per crash point: the
   log suffix past the follower's commit horizon, the buffered in-flight
   tail the promotion drained, losers rolled back, undo records appended,
   and the promotion latency in simulated ticks. Every cell ends with the
   zero-loss check — the promoted digest must equal single-node recovery
   of the same log — and a mismatch kills the run. *)
let e17_ship ?(batch = 64) wal follower =
  let upto = Wal.flushed_lsn wal in
  let shipped = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let from = Database.received_lsn follower + 1 in
    let hi = min upto (from + batch - 1) in
    if hi < from then continue_ := false
    else begin
      let records =
        Wal.decode_frames ~first_lsn:from (Wal.serialize_range wal ~from ~upto:hi)
      in
      Database.apply_replicated follower records;
      shipped := !shipped + List.length records
    end
  done;
  !shipped

(* The streaming-follower deployment from the crash sweep: a shipper
   fiber pumps the stable tail and advances the slot's retention floor
   while MPL workers commit, until the armed force point fires. *)
let e17_run_until_crash spec fcfg =
  let db, sales, _views = Workload.setup spec in
  let f = Database.create_follower ~config:spec.Workload.config () in
  Wal.set_retain_floor (Database.wal db) (Some 1);
  (* installed even for no_faults: the counting run needs forces_seen *)
  Database.install_fault db fcfg;
  let seed = spec.Workload.seed in
  let committed = ref 0 in
  let crashed = ref false in
  (try
     Sched.run ~seed (fun () ->
         let remaining = ref spec.Workload.mpl in
         let running = ref true in
         let wake_main = ref (fun () -> ()) in
         ignore
           (Sched.spawn (fun () ->
                while !running do
                  ignore (e17_ship ~batch:16 (Database.wal db) f);
                  Wal.set_retain_floor (Database.wal db)
                    (Some (Database.replicated_lsn f + 1));
                  Sched.yield ()
                done));
         for w = 1 to spec.Workload.mpl do
           ignore
             (Sched.spawn (fun () ->
                  Fun.protect
                    ~finally:(fun () ->
                      decr remaining;
                      if !remaining = 0 then begin
                        running := false;
                        !wake_main ()
                      end)
                    (fun () ->
                      let rng = Rng.create ((seed * 131) + w) in
                      let next = ref (1000 * w) in
                      for _ = 1 to spec.Workload.txns_per_worker do
                        (try
                           Database.transact db (fun tx ->
                               for _ = 1 to spec.Workload.ops_per_txn do
                                 incr next;
                                 ignore
                                   (Table.insert db tx sales
                                      [|
                                        Value.Int !next;
                                        Value.Int (1 + Rng.int rng 5);
                                        Value.Int (1 + Rng.int rng 10);
                                        Value.Float 1.;
                                      |]);
                                 Sched.yield ()
                               done);
                           incr committed;
                           if !committed mod 3 = 0 then Database.checkpoint db
                         with Txn.Conflict _ -> ());
                        Sched.yield ()
                      done)))
         done;
         if !remaining > 0 then
           Sched.suspend (fun wake _cancel -> wake_main := wake))
   with Fault.Crash_point _ -> crashed := true);
  (db, f, !committed, !crashed)

let e17 ~quick =
  let spec =
    {
      (closed_loop ~seed:7 ~mpl:3 ~budget:(if quick then 9 else 18) ()) with
      ops_per_txn = 3;
      delete_fraction = 0.;
      n_groups = 5;
      theta = 0.8;
      initial_rows = 20;
      config = { Workload.default.Workload.config with Database.pool_capacity = 8 };
    }
  in
  let n_forces =
    let db, _f, _committed, crashed = e17_run_until_crash spec Fault.no_faults in
    if crashed then fatal "e17 counting run crashed";
    Fault.forces_seen (Database.fault_plan db)
  in
  let cell (name, fcfg) =
    let db, f, committed, crashed = e17_run_until_crash spec fcfg in
    if not crashed then fatal "e17 %s: armed crash trigger did not fire" name;
    let dead = Wal.crash (Database.wal db) (Metrics.create ()) in
    let suffix = Wal.flushed_lsn dead - Database.replicated_lsn f in
    let ticks = ref 0 in
    let promo = ref None in
    Sched.run ~seed:1 (fun () ->
        ignore (e17_ship dead f);
        let t0 = Sched.now () in
        let p = Database.promote f in
        ticks := Sched.now () - t0;
        promo := Some p);
    let p = Option.get !promo in
    (* zero-loss: the promoted follower must equal single-node recovery
       over the same surviving log *)
    let db' = Database.crash db in
    if Database.state_digest db' <> Database.state_digest f then
      fatal "e17 %s: promoted follower diverged from single-node recovery" name;
    [
      str ~col:"crash" ~key:"crash" name;
      commits committed;
      int ~col:"suffix" ~key:"suffix_records" suffix;
      int ~col:"tail" ~key:"tail_records" p.Database.tail_records;
      int ~col:"losers" ~key:"losers_undone" p.Database.losers_undone;
      int ~col:"undo" ~key:"undo_records" p.Database.undo_records;
      int ~col:"promote ticks" ~key:"promote_ticks" !ticks;
      digest_match;
    ]
  in
  let n = Fault.no_faults in
  let mid = max 1 (n_forces / 2) in
  List.map cell
    (if quick then [ ("clean-mid", { n with crash_at_force = Some mid }) ]
     else
       [
         ("clean-early", { n with crash_at_force = Some 1 });
         ("clean-mid", { n with crash_at_force = Some mid });
         ("clean-late", { n with crash_at_force = Some n_forces });
         ("torn-mid", { n with crash_at_force = Some mid; torn_tail = true });
       ])

(* --- E18: hash-partitioned shards, 2PC cross-shard commit ------------------- *)

(* Closed-loop scripted transactions through one coordinator over N
   loopback engine shards: per cell, throughput, prepare round-trips and
   the 2PC/local commit split; plus the crash smoke — crash the
   coordinator mid-protocol, power-cycle the cluster, recover, and fail
   the build if any transaction is left in doubt or any decision is lost
   or applied twice. *)

let e18_mk_cluster shards =
  Array.init shards (fun i ->
      let db = Database.create () in
      Coord.configure_shard db ~shard:i ~shards;
      db)

let e18_keys ~shards shard n =
  let rec go k acc remaining =
    if remaining = 0 then Array.of_list (List.rev acc)
    else if Coord.route_value ~shards (Value.Int k) = shard then
      go (k + 1) (k :: acc) (remaining - 1)
    else go (k + 1) acc remaining
  in
  go 0 [] n

(* Scripted transaction [i] spans two shards (an insert on each) when
   [cross] and there is more than one shard, else it is a single pinned
   insert. Every transaction that reaches COMMIT gets global id [i+1], and
   the keys it inserts are recorded so the crash smoke can audit
   decisions. *)
let e18_script ~shards ~txns ~cross =
  let per_shard = Array.init shards (fun s -> e18_keys ~shards s (2 * txns)) in
  List.init txns (fun i ->
      let a = i mod shards in
      let stmt s slot qty =
        let k = per_shard.(s).((2 * i) + slot) in
        ( k,
          Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %d)" k (i mod 5) qty
        )
      in
      if cross && shards > 1 then
        [ stmt a 0 (i + 1); stmt ((a + 1) mod shards) 1 (10 * (i + 1)) ]
      else [ stmt a 0 (i + 1) ])

let e18_setup c =
  List.iter
    (fun s -> ignore (Coord.exec c s))
    [
      "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT NOT NULL)";
      "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY grp \
       USING ESCROW";
      (* DDL doesn't force the log on its own; make the schema durable
         before any armed crash point *)
      "CHECKPOINT";
    ]

let e18_run_script c script =
  List.iter
    (fun stmts ->
      ignore (Coord.exec c "BEGIN");
      List.iter (fun (_, s) -> ignore (Coord.exec c s)) stmts;
      ignore (Coord.exec c "COMMIT"))
    script

(* One cluster phase: loopback nets and servers over [dbs], a coordinator
   over [cwal], run [f]. Fault.Crash_point escaping [f] models the whole
   machine dying mid-run. *)
let e18_phase ?(seed = 11) ?(crash_at = None) ?metrics ?trace dbs cwal f =
  Sched.run ~seed (fun () ->
      let dialers, drain = Server.serve_loopback dbs in
      let c = Coord.create ?metrics ?trace ~wal:cwal dialers in
      Coord.set_crash_at_action c crash_at;
      let r = f c in
      Coord.close c;
      drain ();
      r)

(* The scripted closed loop of an E18/E19 cell on a fresh cluster, with the
   coordinator's registry and trace exposed; [traced] counts every
   coordinator and shard trace event. *)
type cluster_loop = {
  committed : int;
  tput : float;
  stats : Coord.stats;
  indoubt : int;
  metrics : Metrics.t;
  events : int;
  wall : float;
}

let cluster_loop ~quick ~shards ~cross ~traced =
  let script = e18_script ~shards ~txns:(if quick then 12 else 60) ~cross in
  let dbs = e18_mk_cluster shards in
  let metrics = Metrics.create () in
  let events = ref 0 in
  let trace = Trace.create ~clock:Sched.now ~fiber:Sched.self () in
  if traced then
    List.iter
      (fun tr ->
        Trace.add_sink tr (fun _ -> incr events);
        Trace.set_enabled tr true)
      (trace :: Array.to_list (Array.map Database.trace dbs));
  let wall0 = Unix.gettimeofday () in
  let ticks, stats =
    e18_phase ~metrics ~trace dbs (Wal.create metrics) (fun c ->
        e18_setup c;
        let t0 = Sched.now () in
        e18_run_script c script;
        (Sched.now () - t0, Coord.stats c))
  in
  let wall = Unix.gettimeofday () -. wall0 in
  let committed = List.length script in
  {
    committed;
    tput = 1000. *. float_of_int committed /. float_of_int (max 1 ticks);
    stats;
    indoubt = Array.fold_left (fun acc db -> acc + Database.indoubt_count db) 0 dbs;
    metrics;
    events = !events;
    wall;
  }

(* The decision audit: arm a coordinator crash mid-2PC on a 2-shard
   cluster, power-cycle, recover, then check every scripted transaction
   against the coordinator's logged decisions — a committed transaction's
   keys must each exist exactly once, an aborted or undecided one's not
   at all. Any in-doubt leftover, lost decision or double apply kills the
   run. *)
let e18_crash_smoke () =
  let shards = 2 in
  let txns = 6 in
  let script = e18_script ~shards ~txns ~cross:true in
  let run_workload ?(crash_at = None) dbs cwal =
    e18_phase ~crash_at dbs cwal (fun c ->
        e18_setup c;
        e18_run_script c script;
        Coord.actions c)
  in
  let total = run_workload (e18_mk_cluster shards) (Wal.create (Metrics.create ())) in
  let crash_action = max 1 (total / 2) in
  let dbs = e18_mk_cluster shards in
  let cwal = Wal.create (Metrics.create ()) in
  let crashed =
    try
      ignore (run_workload ~crash_at:(Some crash_action) dbs cwal);
      false
    with Fault.Crash_point _ -> true
  in
  if not crashed then fatal "e18 smoke: armed coordinator crash did not fire";
  (* power loss: every shard recovers from its WAL, the coordinator from
     its decision log *)
  let dbs = Array.map Database.crash dbs in
  Array.iteri (fun s db -> Coord.configure_shard db ~shard:s ~shards) dbs;
  let cwal = Wal.crash cwal (Metrics.create ()) in
  let indoubt_count () =
    Array.fold_left (fun acc db -> acc + Database.indoubt_count db) 0 dbs
  in
  let indoubt_at_crash = indoubt_count () in
  e18_phase dbs cwal (fun c -> ignore (Coord.recover c));
  let indoubt_after = indoubt_count () in
  if indoubt_after <> 0 then
    fatal "e18 smoke: %d transaction(s) left in doubt" indoubt_after;
  let decided = Hashtbl.create 8 in
  Wal.iter_stable cwal (fun r ->
      match r.Ivdb_wal.Log_record.body with
      | Ivdb_wal.Log_record.Decision { gtxn; committed } ->
          Hashtbl.replace decided gtxn committed
      | _ -> ());
  (* one multiset of surviving keys across the cluster *)
  let count k =
    Array.fold_left
      (fun acc db ->
        let s = Ivdb_sql.Sql.session db in
        match Ivdb_sql.Sql.exec s (Printf.sprintf "SELECT k FROM t WHERE k = %d" k) with
        | Ivdb_sql.Sql.Rows { rows; _ } -> acc + List.length rows
        | _ -> acc)
      0 dbs
  in
  let lost = ref 0 and duplicated = ref 0 and committed_txns = ref 0 in
  List.iteri
    (fun idx stmts ->
      let gtxn = Printf.sprintf "coord:%d" (idx + 1) in
      let want =
        match Hashtbl.find_opt decided gtxn with Some true -> 1 | _ -> 0
      in
      if want = 1 then incr committed_txns;
      List.iter
        (fun (k, _) ->
          let n = count k in
          if n > want then incr duplicated else if n < want then incr lost)
        stmts)
    script;
  if !lost > 0 || !duplicated > 0 then
    fatal "e18 smoke: %d lost, %d duplicated decision(s)" !lost !duplicated;
  [
    str ~key:"smoke" "coord-crash";
    int ~key:"crash_action" crash_action;
    int ~key:"actions" total;
    int ~key:"txns" txns;
    int ~key:"committed" !committed_txns;
    int ~key:"indoubt_at_crash" indoubt_at_crash;
    int ~key:"indoubt_after_recovery" 0;
    int ~key:"lost" 0;
    int ~key:"duplicated" 0;
    note
      (Printf.sprintf
         "e18 coordinator-crash smoke: crash at action %d/%d, %d committed, %d \
          in-doubt at crash, all resolved, 0 lost / 0 duplicated"
         crash_action total !committed_txns indoubt_at_crash);
  ]

let e18 ~quick =
  let cell shards mix =
    let l = cluster_loop ~quick ~shards ~cross:(mix = "cross") ~traced:false in
    [
      int ~col:"shards" ~key:"shards" shards;
      str ~col:"mix" ~key:"mix" mix;
      commits l.committed;
      tput l.tput;
      int ~col:"prepares" ~key:"prepares_sent" l.stats.Coord.prepares_sent;
      int ~col:"2pc" ~key:"cross_shard_commits" l.stats.Coord.cross_shard_commits;
      int ~col:"local" ~key:"single_shard_commits" l.stats.Coord.single_shard_commits;
      int ~col:"in-doubt" ~key:"indoubt" l.indoubt;
    ]
  in
  let cells =
    List.concat_map
      (fun s -> if s = 1 then [ cell s "single" ] else [ cell s "single"; cell s "cross" ])
      [ 1; 2; 4 ]
  in
  cells @ [ e18_crash_smoke () ]

(* --- E19: cluster observability ----------------------------------------------------------- *)

(* The e18 cross-shard closed loop again, now with the coordinator's
   typed 2PC registry read back and — in the "on" cells — the
   gtxn-correlated trace streams (coordinator + every shard engine)
   enabled into a counting sink. Simulated-tick throughput must be
   identical off/on (tracing never touches the virtual clock), so the
   interesting columns are event volume, wall-time delta, and the
   per-phase tick histograms the registry collected. *)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Build-breaking exporter smoke: drive a small cross-shard workload,
   scrape the coordinator's Metrics_http endpoint over a loopback HTTP
   round trip, and fail the build if any of the 2PC metric families is
   missing from the exposition. *)
let e19_exporter_smoke () =
  let shards = 2 in
  let txns = 4 in
  let script = e18_script ~shards ~txns ~cross:true in
  let metrics = Metrics.create () in
  let body =
    e18_phase ~metrics (e18_mk_cluster shards) (Wal.create metrics) (fun c ->
        e18_setup c;
        e18_run_script c script;
        let module Transport = Ivdb_transport.Transport in
        let net = Transport.Loopback.create () in
        let mlistener = Transport.Loopback.listener net in
        Ivdb_server.Metrics_http.serve metrics mlistener;
        let conn = Transport.Loopback.connect net in
        conn.Transport.write "GET /metrics HTTP/1.0\r\n\r\n";
        let chunk = Bytes.create 4096 in
        let acc = Buffer.create 4096 in
        let rec drain () =
          let n = conn.Transport.read chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes acc chunk 0 n;
            drain ()
          end
        in
        drain ();
        conn.Transport.close ();
        mlistener.Transport.stop ();
        Buffer.contents acc)
  in
  let required =
    [
      "ivdb_coord_votes_yes"; "ivdb_coord_commit_2pc";
      "ivdb_coord_commit_fast_path"; "ivdb_coord_prepare_ticks";
      "ivdb_coord_decision_force_ticks"; "ivdb_coord_decide_ticks";
      "ivdb_coord_indoubt"; "ivdb_log_force";
    ]
  in
  let missing = List.filter (fun f -> not (contains body f)) required in
  if missing <> [] then
    fatal "e19 smoke: exporter is missing %s" (String.concat ", " missing);
  if not (contains body "200 OK") then fatal "e19 smoke: exporter did not answer 200";
  [
    str ~key:"smoke" "metrics-exporter";
    int ~key:"txns" txns;
    int ~key:"scraped_bytes" (String.length body);
    int ~key:"families_checked" (List.length required);
    int ~key:"missing" 0;
    note
      (Printf.sprintf
         "e19 exporter smoke: scraped %d bytes, all %d 2PC metric families present"
         (String.length body) (List.length required));
  ]

let e19 ~quick =
  let cell shards traced =
    let l = cluster_loop ~quick ~shards ~cross:(shards > 1) ~traced in
    let pcts name =
      let cells = Metrics.hist_snapshot l.metrics name in
      (Metrics.percentile_cells cells 50., Metrics.percentile_cells cells 95.)
    in
    let prep50, prep95 = pcts "coord.prepare.ticks" in
    let dec50, dec95 = pcts "coord.decide.ticks" in
    [
      int ~col:"shards" ~key:"shards" shards;
      str ~col:"trace" ~key:"trace" (if traced then "on" else "off");
      commits l.committed;
      tput l.tput;
      int ~col:"events" ~key:"events" l.events;
      str ~col:"prepare p50/p95" (Printf.sprintf "%d/%d" prep50 prep95);
      int ~key:"prepare_ticks_p50" prep50;
      int ~key:"prepare_ticks_p95" prep95;
      str ~col:"decide p50/p95" (Printf.sprintf "%d/%d" dec50 dec95);
      int ~key:"decide_ticks_p50" dec50;
      int ~key:"decide_ticks_p95" dec95;
      num ~col:"wall s" ~key:"wall_s" 4 l.wall;
    ]
  in
  List.concat_map (fun s -> [ cell s false; cell s true ]) [ 1; 2; 4 ]
  @ [ e19_exporter_smoke () ]

(* --- M0: bechamel micro-benchmarks ------------------------------------------------------ *)

let micro ~quick:_ =
  let open Bechamel in
  let open Bechamel.Toolkit in
  (* shared fixtures, built once *)
  let h_metrics = Metrics.create () in
  let disk = Ivdb_storage.Disk.create ~read_cost:0 ~write_cost:0 h_metrics in
  let pool = Ivdb_storage.Bufpool.create disk ~capacity:1024 h_metrics in
  let wal = Wal.create h_metrics in
  Ivdb_storage.Bufpool.set_wal_force pool (fun lsn -> Wal.force wal (Int64.to_int lsn));
  let locks = Ivdb_lock.Lock_mgr.create h_metrics in
  let mgr = Txn.create_mgr ~wal ~locks ~pool h_metrics in
  let tree = Ivdb_btree.Btree.create mgr ~index_id:1 in
  let stx = Txn.begin_system mgr in
  let key k = Ivdb_relation.Key_codec.encode [| Value.Int k |] in
  for k = 1 to 10_000 do
    Ivdb_btree.Btree.insert stx tree ~key:(key k) ~value:(Printf.sprintf "v%06d" k)
  done;
  Txn.commit mgr stx;
  let rng = Rng.create 99 in
  let sample_row =
    [| Value.Int 42; Value.Str "payload"; Value.Float 3.14; Value.Bool true |]
  in
  let sample_encoded = Row.encode sample_row in
  let def =
    {
      View_def.name = "m";
      group_cols = [| 0 |];
      aggs = [| View_def.Sum (Expr.Col 1) |];
      source = View_def.Single { table = 1; where = None };
    }
  in
  let stored = Ivdb_core.Aggregate.zero_row def in
  let delta =
    match Ivdb_core.Aggregate.delta_of_row def ~sign:1 [| Value.Int 1; Value.Int 5 |] with
    | Some (_, d) -> d
    | None -> assert false
  in
  let counter = ref 100_000 in
  let tests =
    [
      Test.make ~name:"btree.search (10k)"
        (Staged.stage (fun () ->
             ignore (Ivdb_btree.Btree.search tree (key (1 + Rng.int rng 10_000)))));
      Test.make ~name:"btree.insert+delete"
        (Staged.stage (fun () ->
             incr counter;
             let k = key !counter in
             Ivdb_btree.Btree.insert_raw tree ~key:k ~value:"x" |> ignore;
             Ivdb_btree.Btree.delete_raw tree ~key:k |> ignore));
      Test.make ~name:"btree.next_key"
        (Staged.stage (fun () ->
             ignore (Ivdb_btree.Btree.next_key tree (key (Rng.int rng 10_000)))));
      Test.make ~name:"row.encode"
        (Staged.stage (fun () -> ignore (Row.encode sample_row)));
      Test.make ~name:"row.decode"
        (Staged.stage (fun () -> ignore (Row.decode sample_encoded)));
      Test.make ~name:"key_codec.encode"
        (Staged.stage (fun () ->
             ignore (Ivdb_relation.Key_codec.encode sample_row)));
      Test.make ~name:"lock.acquire+release"
        (Staged.stage (fun () ->
             Ivdb_lock.Lock_mgr.acquire locks ~txn:1 (Ivdb_lock.Lock_name.Table 9)
               Ivdb_lock.Lock_mode.S;
             Ivdb_lock.Lock_mgr.release_all locks ~txn:1));
      Test.make ~name:"escrow.apply_delta"
        (Staged.stage (fun () ->
             ignore (Ivdb_core.Aggregate.apply def stored delta)));
      Test.make ~name:"wal.append"
        (Staged.stage (fun () ->
             ignore (Wal.append wal ~txn:1 ~prev:0 Ivdb_wal.Log_record.Commit)));
      Test.make ~name:"sql.parse select"
        (Staged.stage (fun () ->
             ignore
               (Ivdb_sql.Sql_parser.parse
                  "SELECT a, b FROM t WHERE a = 1 AND b > 2 ORDER BY b DESC LIMIT 3")));
      Test.make ~name:"log_record.encode"
        (Staged.stage
           (let r =
              {
                Ivdb_wal.Log_record.lsn = 1;
                txn = 7;
                prev = 0;
                body =
                  Ivdb_wal.Log_record.Update
                    {
                      redo = [ (3, [ (100, "0123456789abcdef") ]) ];
                      undo =
                        Ivdb_wal.Log_record.Undo_escrow
                          { view = 9; key = "k"; inverse = "xyz" };
                    };
              }
            in
            fun () -> ignore (Ivdb_wal.Log_record.encode r)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
  List.map
    (fun test ->
      let results =
        Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name:"g" [ test ])
      in
      Hashtbl.fold
        (fun name bench acc ->
          let ols =
            Analyze.one
              (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
              Instance.monotonic_clock bench
          in
          let ns =
            match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan
          in
          [ str ~col:"operation" name; num ~col:"ns/op" 1 ns ] :: acc)
        results []
      |> List.hd)
    tests

(* --- registry and driver ------------------------------------------------------------------ *)

let registry =
  [
    experiment "e1" "E1  Indexed view vs on-demand aggregation (100 groups, point query)" e1;
    experiment "e2"
      "E2  Writer scalability on a hot skewed view (zipf 0.99 over 20 groups, ~256 txns)" e2;
    experiment "e3" "E3  Conflict rate vs access skew (mpl 16, 50 groups)" e3;
    experiment "e4"
      "E4  Writer-side cost of immediate vs deferred maintenance (mpl 1, 200 txns)" e4;
    experiment "e5"
      "E5  Deferred maintenance: refresh cost amortizes with batch size (20 groups)" e5;
    experiment "e6" "E6  Restart recovery vs log length (crash with 5 in-flight losers)" e6;
    experiment "e7"
      "E7  Serializable view readers vs writers: key-range locks vs coarse table locks" e7;
    experiment "e8"
      "E8  Group create/delete churn: system-transaction vs user-transaction creation" e8;
    experiment "e9" "E9  Lock escalation: bulk-load lock footprint (single transaction)" e9;
    experiment "e10" "E10  Reading a hot escrow group: blocking lookup vs bounds read" e10;
    {
      name = "e11";
      title =
        (fun ~quick ->
          Printf.sprintf
            "E11  Commit path: per-commit force vs group commit vs async (escrow, zipf \
             0.99, ~%d txns)"
            (e11_budget ~quick));
      section = Some "cells";
      cells = e11;
    };
    experiment ~section:"e12_fault_recovery" "e12"
      "E12  Recovery under injected faults (escrow, mpl 8, ckpt every 10)" e12;
    experiment ~section:"e13_network" "e13"
      "E13  Network serving: transport x commit mode x connections (escrow, zipf 0.99)" e13;
    experiment ~section:"e14_introspection" "e14"
      "E14  Introspection overhead: slow-query log on the E13 closed loop (loopback, \
       group commit, escrow)"
      e14;
    experiment ~section:"e15_mvcc" "e15"
      "E15  Snapshot readers vs key-range S-lock readers (escrow writers, zipf 0.99, 60% \
       reads)"
      e15;
    experiment ~section:"e16_replication" "e16"
      "E16  Read replica via WAL shipping: lag and primary overhead (escrow, group \
       commit, zipf 0.99)"
      e16;
    experiment ~section:"e17_failover" "e17"
      "E17  Failover: follower promotion under primary crash (escrow, mpl 3, zipf 0.8)" e17;
    experiment ~section:"e18_sharding" "e18"
      "E18  Sharding: 2PC cross-shard commit over hash partitions (escrow view, loopback)"
      e18;
    experiment ~section:"e19_cluster_observability" "e19"
      "E19  Cluster observability: per-phase 2PC metrics, trace on/off (loopback)" e19;
    experiment "micro" "M0  Substrate micro-benchmarks (bechamel)" micro;
  ]

(* Build-breaking guard run ahead of the commit bench: a read-only
   transaction must never enter the lock manager or the WAL. Asserted on
   metric deltas across a snapshot that exercises every read path. *)
let assert_snapshot_lock_free () =
  let db, t, v = sales_view () in
  Database.transact db (fun tx ->
      for k = 1 to 20 do
        ignore
          (Table.insert db tx t
             [| Value.Int k; Value.Int (k mod 5); Value.Int k |])
      done);
  let m = Database.metrics db in
  let locks0 = Metrics.get m "lock.acquire" in
  let wal0 = Metrics.get m "log.append" in
  Database.transact db ~read_only:true (fun tx ->
      ignore (Query.view_lookup db (Some tx) v [| Value.Int 1 |]);
      Seq.iter (fun _ -> ()) (Query.table_scan db (Some tx) t Query.Serializable);
      Seq.iter (fun _ -> ()) (Query.view_scan db (Some tx) v Query.Serializable));
  let locks = Metrics.get m "lock.acquire" - locks0 in
  let wal = Metrics.get m "log.append" - wal0 in
  if locks <> 0 || wal <> 0 then
    fatal
      "read-only transaction touched the lock manager or WAL (lock.acquire +%d, \
       log.append +%d)"
      locks wal;
  Printf.printf "snapshot lock-free guard: ok (0 lock acquisitions, 0 WAL appends)\n%!"

(* The commit bench: every experiment with a BENCH_commit.json section, in
   registry order, each run once. In quick mode it is the smoke run of
   `dune runtest`, and each experiment's FATAL checks break the build. *)
let commit_bench ~quick =
  assert_snapshot_lock_free ();
  let sections =
    List.filter_map (fun e -> Option.map (fun s -> (s, run ~quick e)) e.section) registry
  in
  let oc = open_out "BENCH_commit.json" in
  Printf.fprintf oc "{\n  \"experiment\": \"commit\",\n  \"quick\": %b,\n%s\n}\n" quick
    (String.concat ",\n"
       (List.map
          (fun (s, objs) -> Printf.sprintf "  \"%s\": [\n%s\n  ]" s (String.concat ",\n" objs))
          sections));
  close_out oc;
  Printf.printf "wrote BENCH_commit.json (%d cells)\n%!"
    (List.length (List.concat_map snd sections))

(* e11 names the whole commit bench, so E12-E19 also run inside it *)
let commands =
  List.map
    (fun e ->
      ( e.name,
        if e.name = "e11" then fun () -> commit_bench ~quick:false
        else fun () -> ignore (run ~quick:false e) ))
    registry
  @ [ ("commit-quick", fun () -> commit_bench ~quick:true) ]

let () =
  let chosen =
    match List.tl (Array.to_list Sys.argv) with
    | [] ->
        (* every experiment once: E12-E19 only inside the commit bench *)
        List.filter
          (fun (n, _) ->
            n = "e11"
            || List.exists (fun e -> e.name = n && e.section = None) registry)
          commands
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n commands with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s (known: %s)\n" n
                  (String.concat ", " (List.map fst commands));
                exit 2)
          names
  in
  List.iter (fun (_, f) -> f ()) chosen
