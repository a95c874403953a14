(* shard-2pc: two loopback shards, each an engine behind a Server, driven
   by coordinator sessions through Coord.exec SQL. Each session is a fiber
   with its own Coord.t (Coord_server would share one distributed
   transaction state across its clients). Writes are BEGIN, 4 INSERTs on
   rows only this session writes, COMMIT; half of them spread their rows
   over both shards. View groups hash independently of rows, so most
   single-shard writes still ship a remote delta and pay 2PC. One
   transaction in ten is a fan-out SELECT of the view. *)

module Database = Ivdb.Database
module Query = Ivdb.Query
module Value = Ivdb_relation.Value
module Row = Ivdb_relation.Row
module Metrics = Ivdb_util.Metrics
module Rng = Ivdb_util.Rng
module Sched = Ivdb_sched.Sched
module Transport = Ivdb_transport.Transport
module Server = Ivdb_server.Server
module Coord = Ivdb_coord.Coord
module Sql = Ivdb_sql.Sql
module Wal = Ivdb_wal.Wal

type spec = {
  shards : int;
  sessions : int;
  txns : int;  (** per session per round *)
  groups : int;
  cross_share : float;  (** writes spreading their rows over two shards *)
  read_share : float;  (** fan-out view SELECTs *)
  preload : int;  (** rows inserted through the coordinator at setup *)
}

let shard_2pc =
  { shards = 2; sessions = 8; txns = 30; groups = 20; cross_share = 0.5; read_share = 0.1; preload = 400 }

let small spec = { spec with txns = max 4 (spec.txns / 5); preload = spec.preload / 4 }
let ops_per_write = 4

type txn = Write of (int * int * int) array  (** key, group, qty *) | Read

let plan spec ~seed ~round =
  Array.init spec.sessions (fun w ->
      let rng = Local.rng_for ~seed ~round ~fiber:w in
      (* this session's keys, bucketed by owner shard: key = j * sessions + w *)
      let pools = Array.init spec.shards (fun _ -> Queue.create ()) in
      let j = ref 0 in
      let rec take s =
        match Queue.take_opt pools.(s) with
        | Some k -> k
        | None ->
            let k = spec.preload + (!j * spec.sessions) + w in
            incr j;
            Queue.add k pools.(Coord.route_value ~shards:spec.shards (Value.Int k));
            take s
      in
      Array.init spec.txns (fun _ ->
          if Rng.float rng < spec.read_share then Read
          else begin
            let home = Rng.int rng spec.shards in
            let cross = Rng.float rng < spec.cross_share in
            Write
              (Array.init ops_per_write (fun i ->
                   let s = if cross && i land 1 = 1 then (home + 1) mod spec.shards else home in
                   let k = take s in
                   (k, Rng.int rng spec.groups, 1 + Rng.int rng 9)))
          end))

let insert_sql rows =
  "INSERT INTO t VALUES "
  ^ String.concat ", " (List.map (fun (k, g, q) -> Printf.sprintf "(%d, 'g%d', %d)" k g q) rows)

(* group -> (count, sum) of base rows *)
let aggregate rows =
  let agg = Hashtbl.create 64 in
  List.iter
    (fun (r : Row.t) ->
      match (r.(1), r.(2)) with
      | Value.Str g, Value.Int q ->
          let n, s = Option.value ~default:(0, 0) (Hashtbl.find_opt agg g) in
          Hashtbl.replace agg g (n + 1, s + q)
      | _ -> ())
    rows;
  agg

(* V1 across shards: the view groups (each on its owner shard) equal the
   aggregation of every shard's base rows; empty groups a gc would reclaim
   may linger. *)
let view_matches ~base ~view =
  let agg = aggregate base in
  let ok =
    List.for_all
      (fun (r : Row.t) ->
        match r with
        | [| Value.Str g; Value.Int n; sum |] ->
            let s = match sum with Value.Int s -> s | _ -> 0 in
            let expect = Hashtbl.find_opt agg g in
            Hashtbl.remove agg g;
            expect = Some (n, s) || (n = 0 && expect = None)
        | _ -> false)
      view
  in
  ok && Hashtbl.length agg = 0

let rows_of = function Sql.Rows { rows; _ } -> rows | Sql.Affected _ | Sql.Message _ -> []

let scan_all dbs name view =
  List.concat_map
    (fun db ->
      if view then
        List.of_seq
          (Seq.map
             (* the aggregate row leads with the implicit COUNT( * ) *)
             (fun ((g : Row.t), (a : Row.t)) -> [| g.(0); a.(0); a.(Array.length a - 1) |])
             (Query.view_scan db None (Database.view db name) Query.Dirty))
      else List.of_seq (Query.table_scan db None (Database.table db name) Query.Dirty))
    dbs

let sum_diffs pairs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (before, after) ->
      List.iter
        (fun (n, v) -> Hashtbl.replace tbl n (v + Option.value ~default:0 (Hashtbl.find_opt tbl n)))
        (Metrics.diff ~before ~after))
    pairs;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

let hist_names = [ "coord.prepare.ticks"; "coord.decision_force.ticks"; "coord.decide.ticks" ]

let run spec ~seed ~round ~traced ~tick_budget ~wall_deadline =
  let p = Probe.create ~traced in
  let plan = plan spec ~seed ~round in
  let s0 = Unix.gettimeofday () in
  let dbs =
    Array.init spec.shards (fun i ->
        let db = Database.create () in
        Coord.configure_shard db ~shard:i ~shards:spec.shards;
        Probe.attach p ~src:(Printf.sprintf "shard%d" i) (Database.trace db);
        db)
  in
  let setup_s = ref 0. and measured_s = ref 0. and k0 = ref 0 and k1 = ref 0 in
  let acked = Hashtbl.create 1024 in
  let planned = spec.sessions * spec.txns and settled = ref 0 in
  let v1 = ref false and drained = ref false in
  let counters = ref [] and hists = ref [] and coord_stats = ref None and log_bytes = ref 0 in
  let log = ref [] in
  let outcome =
    Probe.bounded ~wall_deadline (fun () ->
        Sched.run ~seed:(Hashtbl.hash (seed, round, "sched")) (fun () ->
            let nets = Array.map (fun _ -> Transport.Loopback.create ~backlog:64 ()) dbs in
            let servers =
              Array.mapi
                (fun i net ->
                  let s = Server.create dbs.(i) (Probe.tap_listener p (Transport.Loopback.listener net)) in
                  Server.serve s;
                  s)
                nets
            in
            let dialers = Array.map (fun net -> Probe.tap_dialer p (Transport.Loopback.dialer net)) nets in
            let c0 = Coord.create ~name:"setup" dialers in
            List.iter
              (fun s -> ignore (Coord.exec c0 s))
              [
                "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT NOT NULL)";
                "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY grp USING ESCROW";
              ];
            let rng = Local.rng_for ~seed ~round ~fiber:(-1) in
            let rec preload k =
              if k < spec.preload then begin
                let n = min 50 (spec.preload - k) in
                ignore
                  (Coord.exec c0
                     (insert_sql
                        (List.init n (fun i -> (k + i, (k + i) mod spec.groups, 1 + Rng.int rng 9)))));
                preload (k + n)
              end
            in
            preload 0;
            let sessions =
              Array.init spec.sessions (fun w ->
                  let c = Coord.create ~name:(Printf.sprintf "w%d" w) dialers in
                  Probe.attach p ~src:(Printf.sprintf "coord%d" w) (Coord.trace c);
                  c)
            in
            let coords = Array.to_list sessions in
            setup_s := Unix.gettimeofday () -. s0;
            let versions =
              Array.to_list (Array.map (fun db -> Metrics.counter (Database.metrics db) "mvcc.versions_live") dbs)
            in
            let engine_before = Array.to_list (Array.map (fun db -> Metrics.snapshot (Database.metrics db)) dbs) in
            let coord_before = List.map (fun c -> Metrics.snapshot (Coord.metrics c)) coords in
            let hist_before =
              List.map (fun c -> List.map (fun n -> Metrics.hist_snapshot (Coord.metrics c) n) hist_names) coords
            in
            let m0 = Unix.gettimeofday () in
            k0 := Sched.now ();
            Probe.start p;
            let live = ref spec.sessions in
            Array.iteri
              (fun w txns ->
                let c = sessions.(w) in
                let exec sql =
                  Probe.note_sql p sql;
                  Coord.exec c sql
                in
                ignore
                  (Sched.spawn (fun () ->
                       let stop = ref false in
                       Array.iter
                         (fun txn ->
                           if
                             (not !stop)
                             && (Sched.now () - !k0 > tick_budget || Unix.gettimeofday () > wall_deadline)
                           then stop := true;
                           (if !stop then Probe.unstarted p "unfinished at the run deadline"
                            else
                              match txn with
                              | Read ->
                                  Probe.txn p ~read:true (fun id ->
                                      Probe.span p "coord.select" ~txn:id (fun () ->
                                          ignore (exec "SELECT * FROM v")))
                              | Write rows ->
                                  Probe.txn p ~read:false (fun id ->
                                      try
                                        ignore (exec "BEGIN");
                                        Array.iter
                                          (fun row ->
                                            Probe.span p "coord.insert" ~txn:id (fun () ->
                                                ignore (exec (insert_sql [ row ]))))
                                          rows;
                                        Probe.span p "coord.commit" ~txn:id (fun () -> ignore (exec "COMMIT"));
                                        Array.iter (fun (k, _, _) -> Hashtbl.replace acked k ()) rows
                                      with e ->
                                        (if Coord.in_transaction c then
                                           try ignore (Coord.exec c "ROLLBACK") with _ -> ());
                                        raise e));
                           Probe.sample_versions p versions;
                           incr settled)
                         txns;
                       decr live)))
              plan;
            while !live > 0 do
              Sched.yield ()
            done;
            k1 := Sched.now ();
            Probe.stop p;
            measured_s := Unix.gettimeofday () -. m0;
            let engine_after = Array.to_list (Array.map (fun db -> Metrics.snapshot (Database.metrics db)) dbs) in
            let coord_after = List.map (fun c -> Metrics.snapshot (Coord.metrics c)) coords in
            let pairs = List.combine engine_before engine_after @ List.combine coord_before coord_after in
            counters := sum_diffs pairs;
            log_bytes := List.fold_left (fun acc (b, a) -> acc + Probe.counter_delta ~before:b ~after:a "log.bytes") 0 pairs;
            hists :=
              List.mapi
                (fun i n ->
                  ( n,
                    List.concat
                      (List.map2
                         (fun c before ->
                           Metrics.hist_diff ~before:(List.nth before i)
                             ~after:(Metrics.hist_snapshot (Coord.metrics c) n))
                         coords hist_before) ))
                hist_names;
            coord_stats :=
              Some
                (List.fold_left
                   (fun (a : Coord.stats) c ->
                     let s = Coord.stats c in
                     {
                       Coord.single_shard_commits = a.single_shard_commits + s.single_shard_commits;
                       cross_shard_commits = a.cross_shard_commits + s.cross_shard_commits;
                       aborts = a.aborts + s.aborts;
                       prepares_sent = a.prepares_sent + s.prepares_sent;
                       decides_sent = a.decides_sent + s.decides_sent;
                     })
                   {
                     Coord.single_shard_commits = 0;
                     cross_shard_commits = 0;
                     aborts = 0;
                     prepares_sent = 0;
                     decides_sent = 0;
                   }
                   coords);
            if traced then
              List.iter (fun c -> Wal.iter_stable (Coord.wal c) (fun r -> log := r :: !log)) coords;
            v1 :=
              view_matches
                ~base:(rows_of (Coord.exec c0 "SELECT * FROM t"))
                ~view:(rows_of (Coord.exec c0 "SELECT * FROM v"));
            List.iter Coord.close (c0 :: coords);
            Array.iter Server.drain servers);
        drained := true)
  in
  Probe.abandon p ~unsettled:(planned - !settled);
  let indoubt = Array.fold_left (fun acc db -> acc + Database.indoubt_count db) 0 dbs in
  if traced then
    Array.iter (fun db -> Wal.iter_stable (Database.wal db) (fun r -> log := r :: !log)) dbs;
  let recover_s, recovery_gates, redo, undo =
    Local.crash_and_check dbs (fun recovered ->
        let rdbs = Array.to_list recovered in
        let base = scan_all rdbs "t" false in
        let keys = Hashtbl.create 4096 in
        List.iter (fun (r : Row.t) -> match r.(0) with Value.Int k -> Hashtbl.replace keys k () | _ -> ()) base;
        [
          ("acknowledged rows survive crash", Hashtbl.fold (fun k () ok -> ok && Hashtbl.mem keys k) acked true);
          ("V1 after recovery", view_matches ~base ~view:(scan_all rdbs "v" true));
        ])
  in
  Probe.finish p ~setup_s:!setup_s ~measured_s:!measured_s ~ticks:(max 0 (!k1 - !k0)) ~log_bytes:!log_bytes
    ~recover_s
    ~gates:
      ([
         ("run ended within its deadline", outcome = Ok ());
         ("V1 fan-out view = base across shards", !v1);
         ("servers drained", !drained);
         ("no in-doubt transaction after drain", indoubt = 0);
       ]
      @ recovery_gates)
    ~inputs:(Probe.digest_inputs plan)
    (fun () ->
      {
        Probe.counters = !counters;
        hists = !hists;
        log = List.rev !log;
        redo;
        undo;
        coord = !coord_stats;
      })
