(* The in-process workloads: one engine, fibers calling Database.transact,
   Table.* and Query.* directly.

   escrow-hot  the paper's case: writers hammer the few hot groups of one
               escrow COUNT/SUM view, group commit, no disk cost, all data
               in the buffer pool; one snapshot reader looks the hot groups
               up beside them.
   read-spill  base table + view at least 4x the buffer pool, default disk
               costs and sync commit; half the transactions are MVCC
               snapshot readers (view point lookups, a view range scan,
               base-row finds), half are writers on uniform groups. *)

module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Value = Ivdb_relation.Value
module Row = Ivdb_relation.Row
module Schema = Ivdb_relation.Schema
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Maintain = Ivdb_core.Maintain
module Txn = Ivdb_txn.Txn
module Wal = Ivdb_wal.Wal
module Metrics = Ivdb_util.Metrics
module Rng = Ivdb_util.Rng
module Zipf = Ivdb_util.Zipf
module Sched = Ivdb_sched.Sched
module Heap_file = Ivdb_storage.Heap_file
module Bufpool = Ivdb_storage.Bufpool
module Disk = Ivdb_storage.Disk

type role = Writer | Reader | Mixed of float  (** share of reads *)

type spec = {
  config : Database.config;
  fibers : role array;
  txns : int;  (** per fiber per round *)
  groups : int;
  theta : float;  (** Zipf skew of the group a row lands in *)
  preload : int;  (** base rows loaded before the measured phase *)
  spill : int;  (** required (base + view pages) / pool frames; 0 = none *)
  lookups : int;  (** view point lookups per reader transaction *)
  scan_width : int;  (** groups per view range scan; 0 = no scan *)
  finds : int;  (** Table.find base-row reads per reader transaction *)
}

let ops_per_write = 4

(* A [Reader] fiber polls until the first writer finishes, so every read
   it times runs beside the full write load: in the drain at the end of a
   round, with a few writers left, reads return in microseconds, and how
   long that drain lasts varies from round to round. Its plan is long
   enough never to run out first. *)
let poll_factor = 20
let delete_share = 0.1

let escrow_hot =
  {
    config =
      {
        Database.default_config with
        pool_capacity = 4096;
        read_cost = 0;
        write_cost = 0;
        commit_mode = Txn.Group { max_batch = 32; max_wait_ticks = 50 };
      };
    fibers = Array.append (Array.make 16 Writer) [| Reader |];
    txns = 30;
    groups = 20;
    theta = 0.99;
    preload = 500;
    spill = 0;
    lookups = 5;
    scan_width = 0;
    finds = 0;
  }

let read_spill =
  {
    config = { Database.default_config with pool_capacity = 8 };
    fibers = Array.make 8 (Mixed 0.5);
    txns = 30;
    groups = 1000;
    theta = 0.;
    preload = 2400;
    spill = 4;
    lookups = 4;
    scan_width = 10;
    finds = 1;
  }

(* Shrink a round for the self-check: same shape, a fraction of the work. *)
let small spec = { spec with txns = max 4 (spec.txns / 6); preload = spec.preload / 4; spill = 0 }

(* --- generated inputs --------------------------------------------------- *)

type op =
  | Ins of { id : int; grp : int; qty : int }
  | Del of int  (** delete one of the fiber's own committed rows, chosen by this number *)

type txn =
  | Write of op array
  | Read of { lookups : int array; scan : int option; finds : int array }

let rng_for ~seed ~round ~fiber = Rng.create (Hashtbl.hash (seed, round, fiber, "ivbench"))

let plan spec ~seed ~round =
  let zipf = Zipf.create ~n:spec.groups ~theta:spec.theta in
  Array.mapi
    (fun f role ->
      let rng = rng_for ~seed ~round ~fiber:f in
      let next_id = ref (spec.preload + (f * 1_000_000)) in
      let write () =
        Write
          (Array.init ops_per_write (fun _ ->
               if Rng.float rng < delete_share then Del (Rng.int rng (1 lsl 30))
               else begin
                 incr next_id;
                 Ins { id = !next_id; grp = Zipf.draw zipf rng; qty = 1 + Rng.int rng 9 }
               end))
      in
      let read () =
        Read
          {
            lookups = Array.init spec.lookups (fun _ -> Zipf.draw zipf rng);
            scan =
              (if spec.scan_width = 0 then None
               else Some (Rng.int rng (spec.groups - spec.scan_width)));
            finds = Array.init spec.finds (fun _ -> Rng.int rng (max 1 spec.preload));
          }
      in
      match role with
      | Writer -> Array.init spec.txns (fun _ -> write ())
      | Reader -> Array.init (poll_factor * spec.txns) (fun _ -> read ())
      | Mixed share -> Array.init spec.txns (fun _ -> if Rng.float rng < share then read () else write ()))
    spec.fibers

(* --- schema and gates ----------------------------------------------------- *)

let int_col name = { Schema.name; ty = Value.TInt; nullable = false }

let create_schema db =
  let t = Database.create_table db ~name:"sales" ~cols:[ int_col "id"; int_col "grp"; int_col "qty" ] in
  Database.create_index db t ~col:"id" ~name:"sales_id";
  let qty = Expr.col (Database.schema db t) "qty" in
  let v =
    Database.create_view db ~name:"by_grp" ~group_by:[ "grp" ]
      ~aggs:[ View_def.Count_star; View_def.Sum qty ]
      ~source:(Database.From (t, None)) ~strategy:Maintain.Escrow ()
  in
  (t, v)

(* V1: the view equals a from-scratch aggregation of its base rows. *)
let view_matches db v =
  let expect = Query.on_demand_aggregate db None (Database.view_def db v) in
  let actual = List.of_seq (Query.view_scan db None v Query.Dirty) in
  List.equal (fun (g1, r1) (g2, r2) -> Row.equal g1 g2 && Row.equal r1 r2) expect actual

let live_ids db t =
  let ids = Hashtbl.create 4096 in
  Seq.iter
    (fun (r : Row.t) -> match r.(0) with Value.Int id -> Hashtbl.replace ids id () | _ -> ())
    (Query.table_scan db None t Query.Dirty);
  ids

(* Crash and recover every engine, timing it, then [check] the recovered
   engines. Returns the recovery seconds, the check's gates and the redo and
   undo record counts. *)
let crash_and_check dbs check =
  match
    let c0 = Unix.gettimeofday () in
    let recovered = Array.map Database.crash dbs in
    let secs = Unix.gettimeofday () -. c0 in
    let sum name = Array.fold_left (fun acc db -> acc + Metrics.get (Database.metrics db) name) 0 recovered in
    (secs, check recovered, sum "recovery.redo_applied", sum "txn.recovery_undo")
  with
  | r -> r
  | exception e -> (0., [ ("crash recovery: " ^ Printexc.to_string e, false) ], 0, 0)

(* --- one round ------------------------------------------------------------- *)

(* A fiber's committed rows, for its deletes to pick from. *)
type mine = { rows : (int, Heap_file.rid * int) Hashtbl.t; mutable n : int }

let remove_row m i =
  m.n <- m.n - 1;
  Hashtbl.replace m.rows i (Hashtbl.find m.rows m.n);
  Hashtbl.remove m.rows m.n

let run spec ~seed ~round ~traced ~tick_budget ~wall_deadline =
  let p = Probe.create ~traced in
  let plan = plan spec ~seed ~round in
  let s0 = Unix.gettimeofday () in
  let db = Database.create ~config:spec.config () in
  let t, v = create_schema db in
  let rng = rng_for ~seed ~round ~fiber:(-1) in
  let chunk = 500 in
  for c = 0 to ((spec.preload + chunk - 1) / chunk) - 1 do
    Database.transact db (fun tx ->
        for id = c * chunk to min spec.preload ((c + 1) * chunk) - 1 do
          ignore
            (Table.insert db tx t
               [| Value.Int id; Value.Int (id mod spec.groups); Value.Int (1 + Rng.int rng 9) |])
        done)
  done;
  Database.checkpoint db;
  let pages = Disk.page_count (Bufpool.disk (Database.pool db)) in
  let spilled = pages >= spec.spill * spec.config.pool_capacity in
  let setup_s = Unix.gettimeofday () -. s0 in
  let metrics = Database.metrics db in
  Probe.attach p ~src:"db" (Database.trace db);
  let versions = [ Metrics.counter metrics "mvcc.versions_live" ] in
  let before = Metrics.snapshot metrics in
  (* acknowledged effects, for the crash gate *)
  let acked_ins = Hashtbl.create 4096 and acked_del = Hashtbl.create 256 in
  let writers = Array.fold_left (fun n r -> if r = Reader then n else n + 1) 0 spec.fibers in
  let writers_left = ref writers in
  let planned = spec.txns * writers in
  (* planned writer-side transactions that finished or were skipped *)
  let settled = ref 0 in
  let k0 = ref 0 and k1 = ref 0 in
  let fiber role txns =
    let mine = { rows = Hashtbl.create 64; n = 0 } in
    let stop = ref false in
    Array.iter
      (fun txn ->
        if (not !stop) && (Sched.now () - !k0 > tick_budget || Unix.gettimeofday () > wall_deadline)
        then stop := true;
        if role = Reader && !writers_left < writers then ()
        else if !stop then Probe.unstarted p "unfinished at the run deadline"
        else begin
          (match txn with
          | Write ops ->
              let added = ref [] and taken = ref [] and body_end = ref (0., 0) in
              Probe.txn p ~read:false (fun id ->
                  Database.transact db (fun tx ->
                      added := [];
                      taken := [];
                      Array.iter
                        (fun op ->
                          (match op with
                          | Ins { id = rid_id; grp; qty } ->
                              let rid =
                                Probe.span p "db.insert" ~txn:id (fun () ->
                                    Table.insert db tx t
                                      [| Value.Int rid_id; Value.Int grp; Value.Int qty |])
                              in
                              added := (rid, rid_id) :: !added
                          | Del k ->
                              let free = mine.n - List.length !taken in
                              if free > 0 then begin
                                let i = ref (k mod mine.n) in
                                while List.mem !i !taken do
                                  i := (!i + 1) mod mine.n
                                done;
                                taken := !i :: !taken;
                                let rid, _ = Hashtbl.find mine.rows !i in
                                Probe.span p "db.delete" ~txn:id (fun () -> Table.delete db tx t rid)
                              end);
                          Sched.yield ())
                        ops;
                      if traced then body_end := (Probe.now_us (), Sched.now ()));
                  if traced then Probe.add_span p "db.commit" ~txn:id !body_end;
                  (* acknowledged: fold the effects into the fiber's rows *)
                  List.iter
                    (fun i ->
                      Hashtbl.replace acked_del (snd (Hashtbl.find mine.rows i)) ();
                      remove_row mine i)
                    (List.sort (fun a b -> compare b a) !taken);
                  List.iter
                    (fun (rid, rid_id) ->
                      Hashtbl.replace acked_ins rid_id ();
                      Hashtbl.replace mine.rows mine.n (rid, rid_id);
                      mine.n <- mine.n + 1)
                    !added)
          | Read { lookups; scan; finds } ->
              Probe.txn p ~read:true (fun id ->
                  Database.transact db ~read_only:true (fun tx ->
                      let read f =
                        Probe.span p "db.read" ~txn:id f;
                        Sched.yield ()
                      in
                      Array.iter
                        (fun g -> read (fun () -> ignore (Query.view_lookup db (Some tx) v [| Value.Int g |])))
                        lookups;
                      Option.iter
                        (fun lo ->
                          read (fun () ->
                              Seq.iter ignore
                                (Query.view_scan_range db (Some tx) v ~lo:[| Value.Int lo |]
                                   ~hi:[| Value.Int (lo + spec.scan_width) |]
                                   Query.Serializable)))
                        scan;
                      Array.iter
                        (fun id -> read (fun () -> ignore (Table.find db (Some tx) t ~col:"id" (Value.Int id))))
                        finds)));
          Probe.sample_versions p versions
        end;
        if role <> Reader then incr settled)
      txns;
    if role <> Reader then decr writers_left
  in
  let m0 = Unix.gettimeofday () in
  let outcome =
    Probe.bounded ~wall_deadline (fun () ->
        Sched.run ~seed:(Hashtbl.hash (seed, round, "sched")) (fun () ->
            k0 := Sched.now ();
            Probe.start p;
            let remaining = ref (Array.length plan) and wake_main = ref (fun () -> ()) in
            Array.iteri
              (fun f txns ->
                ignore
                  (Sched.spawn (fun () ->
                       fiber spec.fibers.(f) txns;
                       decr remaining;
                       if !remaining = 0 then !wake_main ())))
              plan;
            if !remaining > 0 then Sched.suspend (fun wake _ -> wake_main := wake);
            k1 := Sched.now ();
            Probe.stop p))
  in
  let measured_s = Unix.gettimeofday () -. m0 in
  Probe.abandon p ~unsettled:(planned - !settled);
  let after = Metrics.snapshot metrics in
  let log_bytes = Probe.counter_delta ~before ~after "log.bytes" in
  let log = ref [] in
  if traced then Wal.iter_stable (Database.wal db) (fun r -> log := r :: !log);
  let v1 = try view_matches db v with _ -> false in
  let recover_s, recovery_gates, redo, undo =
    crash_and_check [| db |] (fun dbs ->
        let db' = dbs.(0) in
        let ids = live_ids db' (Database.table db' "sales") in
        [
          ( "acknowledged rows survive crash",
            Hashtbl.fold (fun id () ok -> ok && (Hashtbl.mem ids id || Hashtbl.mem acked_del id)) acked_ins true
            && Hashtbl.fold (fun id () ok -> ok && not (Hashtbl.mem ids id)) acked_del true );
          ("V1 after recovery", view_matches db' (Database.view db' "by_grp"));
        ])
  in
  Probe.finish p ~setup_s ~measured_s ~ticks:(max 0 (!k1 - !k0)) ~log_bytes ~recover_s
    ~gates:
      ([
         ("run ended within its deadline", outcome = Ok ());
         ("V1 view = base aggregation", v1);
         ("preload spills the buffer pool", spilled);
       ]
      @ recovery_gates)
    ~inputs:(Probe.digest_inputs plan)
    (fun () ->
      {
        Probe.counters = Metrics.diff ~before ~after;
        hists = [];
        log = List.rev !log;
        redo;
        undo;
        coord = None;
      })
