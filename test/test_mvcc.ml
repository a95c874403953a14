(* MVCC snapshot reads (D14).

   Property: a snapshot reader interleaved with committing and aborting
   escrow writers always sees a commit-consistent picture — the view rows
   it reads equal an aggregation over the base rows it reads (V1 at its
   begin stamp), and re-reading after yields returns the same answer —
   across seeds and commit modes. Plus: snapshot readers never touch the
   lock manager (metric-verified), and version chains drain once the last
   snapshot is released.

   Index reads under a snapshot (Table.find, SQL predicates on indexed
   columns) equal the filtered snapshot heap scan, on the primary and on a
   follower, and read only their B-tree range: bounded page reads on a
   spilled engine, groups reclaimed after the snapshot began included. *)

module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Sched = Ivdb_sched.Sched
module Txn = Ivdb_txn.Txn
module Mvcc = Ivdb_txn.Mvcc
module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Maintain = Ivdb_core.Maintain
module Metrics = Ivdb_util.Metrics
module Rng = Ivdb_util.Rng
module Btree = Ivdb_btree.Btree

exception Planned_abort

let make_db ?(commit_mode = Txn.Sync) () =
  let config =
    {
      Database.default_config with
      read_cost = 0;
      write_cost = 0;
      commit_mode;
    }
  in
  let db = Database.create ~config () in
  let sales =
    Database.create_table db ~name:"sales"
      ~cols:
        [
          { Schema.name = "id"; ty = Value.TInt; nullable = false };
          { Schema.name = "product"; ty = Value.TInt; nullable = false };
          { Schema.name = "qty"; ty = Value.TInt; nullable = false };
        ]
  in
  let schema = Database.schema db sales in
  let v =
    Database.create_view db ~name:"by_product" ~group_by:[ "product" ]
      ~aggs:[ View_def.Sum (Expr.col schema "qty") ]
      ~source:(Database.From (sales, None))
      ~strategy:Maintain.Escrow ()
  in
  (db, sales, v)

(* V1 at the snapshot: the view rows read under [tx] must equal a fresh
   aggregation over the base rows read under the same [tx]. *)
let snapshot_consistent db sales v tx =
  let expect = Hashtbl.create 16 in
  Seq.iter
    (fun row ->
      let p = Value.to_int row.(1) and q = Value.to_int row.(2) in
      let c, s =
        Option.value ~default:(0, 0) (Hashtbl.find_opt expect p)
      in
      Hashtbl.replace expect p (c + 1, s + q))
    (Query.table_scan db (Some tx) sales Query.Serializable);
  let actual = List.of_seq (Query.view_scan db (Some tx) v Query.Serializable) in
  List.length actual = Hashtbl.length expect
  && List.for_all
       (fun ((g : Ivdb_relation.Row.t), (stored : Ivdb_relation.Row.t)) ->
         match Hashtbl.find_opt expect (Value.to_int g.(0)) with
         | Some (c, s) ->
             Value.to_int stored.(0) = c && Value.to_int stored.(1) = s
         | None -> false)
       actual

let view_rows db v tx =
  List.of_seq (Query.view_scan db (Some tx) v Query.Serializable)

let run_mix ~seed ~commit_mode =
  let db, sales, v = make_db ~commit_mode () in
  (* preload so snapshots have history to defend *)
  Database.transact db (fun tx ->
      for i = 1 to 30 do
        ignore
          (Table.insert db tx sales
             [| Value.Int i; Value.Int (i mod 5); Value.Int (1 + (i mod 7)) |])
      done);
  let failures = ref [] in
  let fail_with msg = failures := msg :: !failures in
  let next_id = ref 1000 in
  Sched.run ~seed (fun () ->
      (* escrow writers: inserts and deletes, ~30% planned aborts *)
      for w = 1 to 4 do
        ignore
          (Sched.spawn (fun () ->
               let rng = Rng.create ((seed * 733) + w) in
               let my_rows = ref [] in
               for _ = 1 to 15 do
                 (try
                    Database.transact db (fun tx ->
                        for _ = 1 to 3 do
                          (if Rng.float rng < 0.25 && !my_rows <> [] then (
                             match !my_rows with
                             | rid :: rest ->
                                 my_rows := rest;
                                 (try Table.delete db tx sales rid
                                  with Not_found -> ())
                             | [] -> ())
                           else begin
                             incr next_id;
                             let rid =
                               Table.insert db tx sales
                                 [|
                                   Value.Int !next_id;
                                   Value.Int (Rng.int rng 5);
                                   Value.Int (1 + Rng.int rng 7);
                                 |]
                             in
                             my_rows := rid :: !my_rows
                           end);
                          Sched.yield ()
                        done;
                        if Rng.float rng < 0.3 then raise Planned_abort)
                  with
                 | Planned_abort -> ()
                 | Txn.Conflict _ -> ());
                 Sched.yield ()
               done))
      done;
      (* snapshot readers: consistency at begin, stability across yields *)
      for r = 1 to 3 do
        ignore
          (Sched.spawn (fun () ->
               for round = 1 to 8 do
                 Database.transact db ~read_only:true (fun tx ->
                     if not (snapshot_consistent db sales v tx) then
                       fail_with
                         (Printf.sprintf
                            "reader %d round %d: view != base at snapshot" r
                            round);
                     let first = view_rows db v tx in
                     Sched.yield ();
                     Sched.yield ();
                     if view_rows db v tx <> first then
                       fail_with
                         (Printf.sprintf
                            "reader %d round %d: snapshot read unstable" r
                            round);
                     Sched.yield ();
                     if not (snapshot_consistent db sales v tx) then
                       fail_with
                         (Printf.sprintf
                            "reader %d round %d: view != base after yields" r
                            round));
                 Sched.yield ()
               done))
      done);
  (db, v, List.rev !failures)

let test_snapshot_vs_escrow_writers () =
  let total_pruned = ref 0 in
  List.iter
    (fun (commit_mode, mode_name) ->
      for seed = 1 to 4 do
        let db, v, failures = run_mix ~seed ~commit_mode in
        total_pruned :=
          !total_pruned
          + Metrics.get (Database.metrics db) "mvcc.versions_pruned";
        Alcotest.(check (list string))
          (Printf.sprintf "commit-consistent snapshots (%s, seed %d)"
             mode_name seed)
          [] failures;
        (* engine-level invariant V1 still holds after the storm *)
        Alcotest.(check bool)
          (Printf.sprintf "V1 (%s, seed %d)" mode_name seed)
          true
          (Ivdb.Workload.check_consistency db v);
        (* every snapshot released: chains must be empty *)
        Alcotest.(check int)
          (Printf.sprintf "no live versions after run (%s, seed %d)"
             mode_name seed)
          0
          (Mvcc.live_versions (Txn.mvcc (Database.mgr db)))
      done)
    [
      (Txn.Sync, "sync");
      (Txn.Group { max_batch = 4; max_wait_ticks = 50 }, "group");
      (Txn.Async, "async");
    ];
  (* the storm must actually have exercised version chains: writers
     committed under live snapshots, so versions were installed and later
     pruned — a zero here would mean the property test went vacuous *)
  Alcotest.(check bool) "version chains were exercised" true (!total_pruned > 0)

(* Read-only transactions never touch the lock manager or the WAL. *)
let test_snapshot_takes_no_locks () =
  let db, sales, v = make_db () in
  let a_rid = ref None in
  Database.transact db (fun tx ->
      for i = 1 to 10 do
        let rid =
          Table.insert db tx sales
            [| Value.Int i; Value.Int (i mod 3); Value.Int i |]
        in
        if !a_rid = None then a_rid := Some rid
      done);
  let m = Database.metrics db in
  let locks_before = Metrics.get m "lock.acquire" in
  let wal_before = Metrics.get m "log.append" in
  Database.transact db ~read_only:true (fun tx ->
      ignore (Query.view_lookup db (Some tx) v [| Value.Int 1 |]);
      Seq.iter
        (fun _ -> ())
        (Query.table_scan db (Some tx) sales Query.Serializable);
      Seq.iter (fun _ -> ()) (Query.view_scan db (Some tx) v Query.Serializable);
      ignore (Table.get db (Some tx) sales (Option.get !a_rid)));
  Alcotest.(check int) "zero lock acquisitions" 0
    (Metrics.get m "lock.acquire" - locks_before);
  Alcotest.(check int) "zero WAL appends" 0
    (Metrics.get m "log.append" - wal_before);
  Alcotest.(check int) "snapshot counted" 1 (Metrics.get m "txn.snapshot_begin")

(* Writes are rejected loudly inside a read-only transaction. *)
let test_snapshot_rejects_writes () =
  let db, sales, _v = make_db () in
  let raised =
    try
      Database.transact db ~read_only:true (fun tx ->
          ignore
            (Table.insert db tx sales
               [| Value.Int 1; Value.Int 1; Value.Int 1 |]);
          false)
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "insert raises Invalid_argument" true raised

(* Versions are only retained while a snapshot can still read them, and the
   chains drain as soon as the last snapshot is released. *)
let test_version_gc () =
  let db, sales, _v = make_db () in
  let mvcc = Txn.mvcc (Database.mgr db) in
  let m = Database.metrics db in
  Database.transact db (fun tx ->
      for i = 1 to 5 do
        ignore
          (Table.insert db tx sales
             [| Value.Int i; Value.Int (i mod 2); Value.Int i |])
      done);
  (* no snapshot live: committed writes install nothing *)
  Alcotest.(check int) "no versions without readers" 0 (Mvcc.live_versions mvcc);
  let snap = Txn.begin_snapshot (Database.mgr db) in
  Database.transact db (fun tx ->
      for i = 10 to 14 do
        ignore
          (Table.insert db tx sales
             [| Value.Int i; Value.Int (i mod 2); Value.Int i |])
      done);
  let live_during = Mvcc.live_versions mvcc in
  Alcotest.(check bool) "versions retained for the open snapshot" true
    (live_during > 0);
  (* the snapshot still sees the pre-commit state *)
  let n = ref 0 in
  Seq.iter
    (fun _ -> incr n)
    (Query.table_scan db (Some snap) sales Query.Serializable);
  Alcotest.(check int) "snapshot sees 5 rows" 5 !n;
  Txn.commit (Database.mgr db) snap;
  Alcotest.(check int) "chains drained after release" 0
    (Mvcc.live_versions mvcc);
  Alcotest.(check bool) "prunes counted" true
    (Metrics.get m "mvcc.versions_pruned" >= live_during)

(* Regression for the install-time race documented at [Mvcc.install]: on
   a mixed escrow-then-exclusive key, commit delivers TWO entries at the
   same stamp — the escrow maintenance path pushes the pre-commit value
   ([push_committed]) and the transaction's recorded before-image is
   promoted by [commit_txn] — and either can arrive first. The first
   writer must win and the second must be dropped: exactly one entry
   joins the chain per key, and a snapshot reader resolves to the
   first-installed value in both arrival orders. Before the dedup, the
   chain head was duplicated and the reader's answer depended on which
   path ran last. *)
let test_mixed_install_race () =
  let mvcc = Mvcc.create (Metrics.create ()) in
  let snap = Mvcc.begin_snapshot mvcc in
  let committed = function
    | Mvcc.Committed v -> v
    | Mvcc.Pending _ -> Alcotest.fail "resolved to Pending"
    | Mvcc.Current -> Alcotest.fail "resolved to Current"
  in
  (* key "a": the escrow push lands first, the promoted before-image
     second (same stamp) *)
  Mvcc.record_write mvcc ~txn:7 ~obj:1 ~key:"a" ~before:(Some "before-a");
  let stamp_a = Mvcc.last_stamp mvcc + 1 in
  Mvcc.push_committed mvcc ~obj:1 ~key:"a" ~stamp:stamp_a (Some "escrow-a");
  Alcotest.(check int) "one entry after the escrow push" 1
    (Mvcc.live_versions mvcc);
  let s = Mvcc.commit_txn mvcc ~txn:7 in
  Alcotest.(check int) "commit stamps the racing pair equally" stamp_a s;
  Alcotest.(check int) "the promoted before-image was dropped" 1
    (Mvcc.live_versions mvcc);
  Alcotest.(check (option string)) "reader sees the first-installed value"
    (Some "escrow-a")
    (committed (Mvcc.resolve mvcc ~obj:1 ~key:"a" ~snap));
  (* key "b": reverse order — the before-image promotion lands first,
     the escrow push second *)
  Mvcc.record_write mvcc ~txn:8 ~obj:1 ~key:"b" ~before:(Some "before-b");
  let stamp_b = Mvcc.commit_txn mvcc ~txn:8 in
  Alcotest.(check int) "one entry after the promotion" 2
    (Mvcc.live_versions mvcc);
  Mvcc.push_committed mvcc ~obj:1 ~key:"b" ~stamp:stamp_b (Some "escrow-b");
  Alcotest.(check int) "the late escrow push was dropped" 2
    (Mvcc.live_versions mvcc);
  Alcotest.(check (option string)) "reader sees the first-installed value"
    (Some "before-b")
    (committed (Mvcc.resolve mvcc ~obj:1 ~key:"b" ~snap));
  (* distinct stamps never dedup: a later commit chains normally *)
  Mvcc.record_write mvcc ~txn:9 ~obj:1 ~key:"a" ~before:(Some "second-a");
  ignore (Mvcc.commit_txn mvcc ~txn:9);
  Alcotest.(check int) "a distinct stamp chains a new entry" 3
    (Mvcc.live_versions mvcc);
  Alcotest.(check (option string)) "the old snapshot still reads the oldest"
    (Some "escrow-a")
    (committed (Mvcc.resolve mvcc ~obj:1 ~key:"a" ~snap));
  Mvcc.release_snapshot mvcc snap;
  Alcotest.(check int) "chains drain with the snapshot" 0
    (Mvcc.live_versions mvcc)

(* Regression: an insert reusing a freed heap slot can block on that
   slot's row lock — here T1 was granted X to delete the slot's previous
   row, found it already gone, and kept the lock. The inserter T3 waits with
   its row already written, so the row's pending image must be recorded
   before the lock request, or a snapshot resolves the rid as current and
   returns the uncommitted row. T1 then closes a deadlock cycle (S on the
   table, where T3 holds IX); T3, the younger, is the victim and retries,
   and its first attempt must leave no row behind — its undo record must
   precede the lock request too. *)
let test_blocked_insert_invisible () =
  let db, sales, _v = make_db () in
  let row i = [| Value.Int i; Value.Int 0; Value.Int 1 |] in
  let victim =
    Database.transact db (fun tx ->
        ignore (Table.insert db tx sales (row 1));
        Table.insert db tx sales (row 2))
  in
  (* the committed delete's ghost slot is reclaimed right after commit *)
  Database.transact db (fun tx -> Table.delete db tx sales victim);
  let ids tx =
    Query.table_scan db (Some tx) sales Query.Serializable
    |> Seq.map (fun r -> Value.to_int r.(0))
    |> List.of_seq |> List.sort compare
  in
  let t1_holds = ref false and release = ref false in
  let seen = ref [] and found = ref None and physical = ref 0 in
  Sched.run ~seed:1 (fun () ->
      ignore
        (Sched.spawn (fun () ->
             Database.transact db (fun tx ->
                 (try Table.delete db tx sales victim with Not_found -> ());
                 t1_holds := true;
                 while not !release do Sched.yield () done;
                 Txn.lock (Database.mgr db) tx
                   (Ivdb_lock.Lock_name.Table (Database.Internal.table_id sales))
                   Ivdb_lock.Lock_mode.S)));
      ignore
        (Sched.spawn (fun () ->
             while not !t1_holds do Sched.yield () done;
             Database.transact db (fun tx ->
                            ignore (Table.insert db tx sales (row 3)))));
      while not !t1_holds do Sched.yield () done;
      for _ = 1 to 5 do Sched.yield () done;
      (* T3 is parked on T1's row lock with its row in the slot *)
      physical := Table.row_count db sales;
      Database.transact db ~read_only:true (fun tx ->
          seen := ids tx;
          found := Some (Table.get db (Some tx) sales victim));
      release := true);
  Alcotest.(check int) "the blocked insert's row is physically stored" 2 !physical;
  Alcotest.(check int) "the inserter was the deadlock victim" 1
    (Metrics.get (Database.metrics db) "txn.retry");
  Alcotest.(check (list int)) "snapshot scan skips the uncommitted row" [ 1 ] !seen;
  Alcotest.(check bool) "snapshot get skips the uncommitted row" true
    (!found = Some None);
  Database.transact db ~read_only:true (fun tx ->
      Alcotest.(check (list int)) "visible once committed" [ 1; 3 ] (ids tx))

(* --- snapshot index oracle ------------------------------------------------ *)

module I = Database.Internal

let int_col name = { Schema.name; ty = Value.TInt; nullable = false }
let n_grp = 6
let n_u = 60

(* items(id, grp, u): an ordinary index on grp, a unique index on u *)
let make_indexed_db ~auto_ghost_gc =
  let config =
    { Database.default_config with read_cost = 0; write_cost = 0; auto_ghost_gc }
  in
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"items"
      ~cols:[ int_col "id"; int_col "grp"; int_col "u" ]
  in
  Database.create_index db t ~col:"grp" ~name:"items_grp";
  Database.create_index db ~unique:true t ~col:"u" ~name:"items_u";
  Database.transact db (fun tx ->
      for i = 0 to 39 do
        ignore
          (Table.insert db tx t
             [| Value.Int i; Value.Int (i mod n_grp); Value.Int i |])
      done);
  (config, db, t)

let sorted l = List.sort compare l

(* Check every index read of [tx] against its own filtered heap scan;
   returns how many probes answered differently from current storage
   (i.e. from history), and adds failures to [fail]. *)
let check_index_reads ~ctx ~fail ?sql db t tx rng =
  let heap = List.of_seq (I.heap_scan_rows db (Some tx) t) in
  let us = List.map (fun (_, r) -> Value.to_int r.(2)) heap in
  if List.length (List.sort_uniq compare us) <> List.length us then
    fail (ctx ^ ": a unique value shows twice");
  let history = ref 0 in
  let probe col pos v =
    let want =
      sorted (List.filter (fun (_, r) -> Value.to_int r.(pos) = v) heap)
    in
    let got = sorted (Table.find db (Some tx) t ~col (Value.Int v)) in
    if got <> want then
      fail (Printf.sprintf "%s: find %s = %d differs from the heap" ctx col v);
    if got <> sorted (Table.find db None t ~col (Value.Int v)) then incr history
  in
  for g = 0 to n_grp - 1 do probe "grp" 1 g done;
  for _ = 1 to 6 do probe "u" 2 (Rng.int rng n_u) done;
  (match sql with
  | None -> ()
  | Some s ->
      let rows q =
        match Ivdb_sql.Sql.exec s q with
        | Ivdb_sql.Sql.Rows { rows; _ } -> sorted rows
        | _ -> fail (ctx ^ ": not a row result"); []
      in
      let heap_rows p =
        sorted (List.filter_map (fun (_, r) -> if p r then Some r else None) heap)
      in
      let g = Rng.int rng n_grp in
      if rows (Printf.sprintf "SELECT * FROM items WHERE grp = %d" g)
         <> heap_rows (fun r -> Value.to_int r.(1) = g)
      then fail (Printf.sprintf "%s: SQL grp = %d differs from the heap" ctx g);
      let a = Rng.int rng n_u in
      let b = a + Rng.int rng 15 in
      if rows (Printf.sprintf "SELECT * FROM items WHERE u >= %d AND u <= %d" a b)
         <> heap_rows (fun r ->
                let u = Value.to_int r.(2) in
                u >= a && u <= b)
      then
        fail (Printf.sprintf "%s: SQL u in [%d, %d] differs from the heap" ctx a b));
  (heap, !history)

(* Stream the primary's stable log into the follower (whole records only;
   the follower applies up to its last complete commit boundary). *)
let ship primary follower =
  let wal = Database.wal primary in
  let from = Database.received_lsn follower + 1 in
  let upto = Ivdb_wal.Wal.flushed_lsn wal in
  if upto >= from then
    Database.apply_replicated follower
      (Ivdb_wal.Wal.decode_frames ~first_lsn:from
         (Ivdb_wal.Wal.serialize_range wal ~from ~upto))

let run_index_oracle ~seed =
  let auto_ghost_gc = seed mod 2 = 0 in
  let config, db, t = make_indexed_db ~auto_ghost_gc in
  let follower = Database.create_follower ~config () in
  let failures = ref [] and history = ref 0 in
  let fail msg = failures := Printf.sprintf "seed %d: %s" seed msg :: !failures in
  let next_id = ref 1000 and writers_left = ref 3 in
  let follower_check ctx =
    ship db follower;
    let ft = Database.table follower "items" in
    Database.transact follower ~read_only:true (fun tx ->
        ignore
          (check_index_reads ~ctx:("follower " ^ ctx) ~fail follower ft tx
             (Rng.create seed)))
  in
  Sched.run ~seed (fun () ->
      for w = 1 to 3 do
        ignore
          (Sched.spawn (fun () ->
               let rng = Rng.create ((seed * 7919) + w) in
               for _ = 1 to 14 do
                 (try
                    Database.transact db (fun tx ->
                        for _ = 1 to 1 + Rng.int rng 3 do
                          let k = Rng.int rng n_u in
                          let r = Rng.float rng in
                          if r < 0.4 then begin
                            incr next_id;
                            ignore
                              (Table.insert db tx t
                                 [|
                                   Value.Int !next_id;
                                   Value.Int (Rng.int rng n_grp);
                                   Value.Int k;
                                 |])
                          end
                          else
                            List.iter
                              (fun (rid, row) ->
                                if r < 0.7 then Table.delete db tx t rid
                                else
                                  (* same unique value, new group: the u entry
                                     is ghosted, then revived with the new rid *)
                                  ignore
                                    (Table.update db tx t rid
                                       [|
                                         row.(0); Value.Int (Rng.int rng n_grp); row.(2);
                                       |]))
                              (Table.find db (Some tx) t ~col:"u" (Value.Int k));
                          Sched.yield ()
                        done;
                        if Rng.float rng < 0.2 then raise Planned_abort)
                  with
                 | Planned_abort | Database.Constraint_violation _
                 | Txn.Conflict _
                 ->
                   ());
                 if Rng.float rng < 0.15 then ignore (Database.gc db);
                 Sched.yield ()
               done;
               decr writers_left))
      done;
      for r = 1 to 2 do
        ignore
          (Sched.spawn (fun () ->
               let rng = Rng.create ((seed * 104729) + r) in
               let round = ref 0 in
               while !writers_left > 0 do
                 incr round;
                 let ctx = Printf.sprintf "reader %d round %d" r !round in
                 let s = Ivdb_sql.Sql.session db in
                 ignore (Ivdb_sql.Sql.exec s "BEGIN READ ONLY");
                 let tx = Option.get (Ivdb_sql.Sql.current_txn s) in
                 let heap, h = check_index_reads ~ctx ~fail ~sql:s db t tx rng in
                 history := !history + h;
                 for _ = 1 to 1 + Rng.int rng 4 do Sched.yield () done;
                 let heap', h =
                   check_index_reads ~ctx:(ctx ^ " after yields") ~fail ~sql:s db
                     t tx rng
                 in
                 history := !history + h;
                 if heap' <> heap then fail (ctx ^ ": snapshot heap moved");
                 ignore (Ivdb_sql.Sql.exec s "COMMIT");
                 if !round mod 3 = 0 then follower_check ctx;
                 Sched.yield ()
               done))
      done);
  Ivdb_wal.Wal.force (Database.wal db) (Ivdb_wal.Wal.last_lsn (Database.wal db));
  follower_check "final";
  (* converged: the follower answers what a fresh primary snapshot does *)
  let answers db t =
    Database.transact db ~read_only:true (fun tx ->
        let find col v = Table.find db (Some tx) t ~col (Value.Int v) in
        List.init n_u (find "u") @ List.init n_grp (find "grp"))
  in
  if answers db t <> answers follower (Database.table follower "items") then
    fail "final: follower answers differ from the primary's";
  if Mvcc.live_versions (Txn.mvcc (Database.mgr follower)) <> 0 then
    fail "follower holds version chains";
  (db, List.rev !failures, !history)

let test_snapshot_index_oracle () =
  let history = ref 0 and pruned = ref 0 in
  for seed = 1 to 12 do
    let db, failures, h = run_index_oracle ~seed in
    history := !history + h;
    pruned := !pruned + Metrics.get (Database.metrics db) "mvcc.versions_pruned";
    Alcotest.(check (list string))
      (Printf.sprintf "index reads = heap (seed %d)" seed)
      [] failures;
    Alcotest.(check int)
      (Printf.sprintf "every probe used an index (seed %d)" seed)
      0
      (Metrics.get (Database.metrics db) "view.join_scan_fallback")
  done;
  (* non-vacuous: snapshots answered from history, through pruned chains *)
  Alcotest.(check bool) "probes answered from version chains" true (!history > 0);
  Alcotest.(check bool) "versions were installed and pruned" true (!pruned > 0)

(* --- bounded snapshot reads on a spilled engine --------------------------- *)

let test_snapshot_reads_bounded () =
  let config = { Database.default_config with pool_capacity = 8 } in
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"sales"
      ~cols:[ int_col "id"; int_col "grp"; int_col "qty" ]
  in
  Database.create_index db t ~col:"id" ~name:"sales_id";
  let v =
    Database.create_view db ~name:"by_grp" ~group_by:[ "grp" ]
      ~aggs:
        [ View_def.Count_star; View_def.Sum (Expr.col (Database.schema db t) "qty") ]
      ~source:(Database.From (t, None)) ~strategy:Maintain.Escrow ()
  in
  let n_groups = 1000 in
  for c = 0 to 19 do
    Database.transact db (fun tx ->
        for id = c * 100 to (c * 100) + 99 do
          ignore
            (Table.insert db tx t
               [| Value.Int id; Value.Int (id mod n_groups); Value.Int 1 |])
        done)
  done;
  Database.checkpoint db;
  let pages =
    Ivdb_storage.Disk.page_count (Ivdb_storage.Bufpool.disk (Database.pool db))
  in
  Alcotest.(check bool) "data spills the pool 4x" true (pages >= 4 * 8);
  let ix_tree = I.ix_tree (List.hd (I.rt_indexes (I.table_rt db (I.table_id t)))) in
  let view_tree = (I.view_rt db (I.view_id v)).Maintain.tree in
  let m = Database.metrics db in
  let counters =
    [ "disk.read"; "buffer.miss"; "view.join_scan_fallback"; "lock.acquire"; "log.append" ]
  in
  (* page reads within [bound]; no heap-scan fallback, lock or WAL traffic *)
  let bounded ctx ~bound f =
    let before = List.map (Metrics.get m) counters in
    let r = f () in
    List.iter2
      (fun c b ->
        let d = Metrics.get m c - b in
        match c with
        | "disk.read" | "buffer.miss" ->
            if d > bound then Alcotest.failf "%s: %s = %d exceeds %d" ctx c d bound
        | _ -> Alcotest.(check int) (Printf.sprintf "%s: %s" ctx c) 0 d)
      counters before;
    r
  in
  let find tx id = Table.find db (Some tx) t ~col:"id" (Value.Int id) in
  let lo = 300 and hi = 310 in
  let range tx =
    List.of_seq
      (Query.view_scan_range db (Some tx) v ~lo:[| Value.Int lo |]
         ~hi:[| Value.Int hi |] Query.Serializable)
  in
  let snap = Txn.begin_snapshot (Database.mgr db) in
  (* a point find reads one index descent (its key range may straddle two
     leaves) and one heap page; a 10-group range one view descent plus the
     leaves it spans *)
  let find_bound = Btree.height ix_tree + 2 in
  let range_bound = Btree.height view_tree + 1 in
  Alcotest.(check int) "find returns the row" 1
    (List.length (bounded "snapshot find" ~bound:find_bound (fun () -> find snap 777)));
  let groups = bounded "snapshot range" ~bound:range_bound (fun () -> range snap) in
  Alcotest.(check int) "range returns 10 groups" 10 (List.length groups);
  (* the groups at [lo] and just below [hi] are emptied and reclaimed after
     the snapshot began: only version chains still hold them *)
  Database.transact db (fun tx ->
      List.iter
        (fun id -> List.iter (fun (rid, _) -> Table.delete db tx t rid) (find tx id))
        [ lo; lo + n_groups; hi - 1; hi - 1 + n_groups ]);
  ignore (Database.gc db);
  let stored g = Btree.search view_tree (Ivdb_relation.Key_codec.encode [| Value.Int g |]) in
  Alcotest.(check bool) "emptied groups reclaimed from the tree" true
    (stored lo = None && stored (hi - 1) = None);
  Alcotest.(check bool) "reclaimed groups at both ends still visible" true
    (bounded "snapshot range after reclaim" ~bound:range_bound (fun () -> range snap)
    = groups);
  Alcotest.(check int) "a reclaimed row's index entry still resolves" 1
    (List.length (find snap lo));
  Txn.commit (Database.mgr db) snap;
  Database.transact db ~read_only:true (fun tx ->
      Alcotest.(check int) "a fresh snapshot sees 8 groups" 8 (List.length (range tx)))

(* An index built after a snapshot began lacks entries for rows deleted in
   between, which that snapshot still sees: it must read the heap. *)
let test_index_newer_than_snapshot () =
  let db, sales, _v = make_db () in
  let rid =
    Database.transact db (fun tx ->
        Table.insert db tx sales [| Value.Int 7; Value.Int 1; Value.Int 1 |])
  in
  let snap = Txn.begin_snapshot (Database.mgr db) in
  Database.transact db (fun tx -> Table.delete db tx sales rid);
  Database.create_index db sales ~col:"id" ~name:"sales_id";
  let m = Database.metrics db in
  let fallback () = Metrics.get m "view.join_scan_fallback" in
  let scans = fallback () in
  let find tx = List.length (Table.find db (Some tx) sales ~col:"id" (Value.Int 7)) in
  Alcotest.(check int) "the old snapshot still finds the row" 1 (find snap);
  Alcotest.(check int) "through the heap" (scans + 1) (fallback ());
  Txn.commit (Database.mgr db) snap;
  Database.transact db ~read_only:true (fun tx ->
      Alcotest.(check int) "a new snapshot uses the index" 0 (find tx));
  Alcotest.(check int) "without a heap scan" (scans + 1) (fallback ())

let () =
  Alcotest.run "mvcc"
    [
      ( "snapshots",
        [
          Alcotest.test_case "snapshot readers vs escrow writers" `Quick
            test_snapshot_vs_escrow_writers;
          Alcotest.test_case "no locks, no WAL" `Quick
            test_snapshot_takes_no_locks;
          Alcotest.test_case "writes rejected" `Quick
            test_snapshot_rejects_writes;
          Alcotest.test_case "version chains drain" `Quick test_version_gc;
          Alcotest.test_case "mixed-key install race dedups at the head"
            `Quick test_mixed_install_race;
          Alcotest.test_case "blocked insert stays invisible" `Quick
            test_blocked_insert_invisible;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "snapshot index oracle" `Quick
            test_snapshot_index_oracle;
          Alcotest.test_case "snapshot reads seek, bounded and lock-free" `Quick
            test_snapshot_reads_bounded;
          Alcotest.test_case "a snapshot older than the index reads the heap"
            `Quick test_index_newer_than_snapshot;
        ] );
    ]
