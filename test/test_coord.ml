(* The sharding coordinator end to end on the deterministic loopback
   transport: statement routing and view fan-out, cross-shard 2PC with
   escrow delta shipping, sys.shards through both paths, the
   coordinator-crash-at-every-action sweep, the participant-crash-at-
   every-force-point sweep (clean and torn tail), the prepare/decide
   retransmit dedupe regression, and presumed abort's cost and recovery:
   the per-commit force budget, gtxn id reservation across a restart,
   and pull recovery of in-doubt gtxns through sys.indoubt; and the
   coordinator's wire console (catalogs over the wire, rollback on
   disconnect, drain).

   The crash sweeps follow the repo's standard shape: run a scripted
   workload once unarmed to size the sweep, then re-run it once per
   injection point, power-cycle the whole cluster (Database.crash per
   shard, Wal.crash for the coordinator's decision log), run
   coordinator recovery, and require that (a) no shard keeps an
   in-doubt transaction and (b) the gc'd union of shard digests is
   bit-identical to a serial re-execution of exactly the
   decided-committed transactions on a fresh cluster. *)

module Sched = Ivdb_sched.Sched
module Database = Ivdb.Database
module Metrics = Ivdb_util.Metrics
module Sql = Ivdb_sql.Sql
module Transport = Ivdb_transport.Transport
module Wire = Ivdb_wire.Wire
module Server = Ivdb_server.Server
module Client = Ivdb_client.Client
module Coord = Ivdb_coord.Coord
module Trace = Ivdb_util.Trace
module Wal = Ivdb_wal.Wal
module Log_record = Ivdb_wal.Log_record
module Fault = Ivdb_storage.Fault
module Value = Ivdb_relation.Value

let check = Alcotest.check

let rows = function
  | Sql.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected Rows"

let affected = function
  | Sql.Affected n -> n
  | _ -> Alcotest.fail "expected Affected"

let sort_rows rs =
  List.sort (fun (a : Value.t array) b -> Value.compare a.(0) b.(0)) rs

(* --- cluster harness --------------------------------------------------- *)

(* The durable half of a cluster: the shard engines and the
   coordinator's decision log. Transports, servers and the coordinator
   itself are volatile — rebuilt by every [phase]. *)
type cluster = { mutable dbs : Database.t array; mutable cwal : Wal.t }

let fresh_cluster shards =
  {
    dbs =
      Array.init shards (fun i ->
          let db = Database.create () in
          Coord.configure_shard db ~shard:i ~shards;
          db);
    cwal = Wal.create (Metrics.create ());
  }

(* One power cycle: each phase is one scheduler run with fresh loopback
   nets, servers over the surviving engines, and a coordinator rebuilt
   over the surviving decision log. An escaping Fault.Crash_point
   models the whole machine dying mid-run. *)
let phase ?(seed = 11) ?trace cl f =
  Sched.run ~seed (fun () ->
      let dialers, drain = Server.serve_loopback cl.dbs in
      let c = Coord.create ?trace ~wal:cl.cwal dialers in
      let r = f c dialers in
      Coord.close c;
      drain ();
      r)

(* Power loss: volatile state (open sessions, unforced tails) is gone;
   shards recover from their WALs — resurrecting in-doubt transactions
   with their locks — and the coordinator log drops its torn tail. *)
let crash_cluster cl =
  let shards = Array.length cl.dbs in
  cl.dbs <- Array.map Database.crash cl.dbs;
  Array.iteri (fun i db -> Coord.configure_shard db ~shard:i ~shards) cl.dbs;
  cl.cwal <- Wal.crash cl.cwal (Metrics.create ())

let digest_union cl =
  Array.iter (fun db -> ignore (Database.gc db)) cl.dbs;
  String.concat "|" (Array.to_list (Array.map Database.state_digest cl.dbs))

(* --- scripted workload ------------------------------------------------- *)

let setup_stmts =
  [
    "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT NOT NULL)";
    "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY grp \
     USING ESCROW";
    (* DDL system transactions don't force the log on their own; the
       checkpoint makes the schema durable before any crash point *)
    "CHECKPOINT";
  ]

let run_setup c = List.iter (fun s -> ignore (Coord.exec c s)) setup_stmts

let keys_owned_by ~shards shard n =
  let rec go k acc remaining =
    if remaining = 0 then Array.of_list (List.rev acc)
    else if Coord.route_value ~shards (Value.Int k) = shard then
      go (k + 1) (k :: acc) (remaining - 1)
    else go (k + 1) acc remaining
  in
  go 0 [] n

(* [n] transactions, every one spanning both shards of a 2-shard
   cluster (one insert owned by each), so each COMMIT is a full 2PC
   round and global transaction [i+1] is script transaction [i]. *)
let script ~shards n =
  let a = keys_owned_by ~shards 0 n and b = keys_owned_by ~shards 1 n in
  List.init n (fun i ->
      [
        Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %d)" a.(i) (i mod 3)
          (i + 1);
        Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %d)" b.(i)
          ((i + 1) mod 3)
          (10 * (i + 1));
      ])

let run_txn c stmts =
  ignore (Coord.exec c "BEGIN");
  List.iter (fun s -> ignore (Coord.exec c s)) stmts;
  ignore (Coord.exec c "COMMIT")

let run_script c txns = List.iter (run_txn c) txns

(* Global transaction ids decided committed in the coordinator's log
   ("coord:N" -> N), i.e. the transactions recovery is bound to
   preserve. Read after recovery — the presumed-abort decisions it
   appends are committed=false and don't affect the set. *)
let committed_gids cwal =
  let h = Hashtbl.create 8 in
  Wal.iter_stable cwal (fun r ->
      match r.Log_record.body with
      | Log_record.Decision { gtxn; committed } ->
          Hashtbl.replace h gtxn committed
      | _ -> ());
  Hashtbl.fold
    (fun g c acc ->
      match String.rindex_opt g ':' with
      | Some i when c -> (
          match
            int_of_string_opt (String.sub g (i + 1) (String.length g - i - 1))
          with
          | Some n -> n :: acc
          | None -> acc)
      | _ -> acc)
    h []
  |> List.sort compare

(* Serial reference: execute exactly [gids] of [txns], in order, on a
   fresh cluster — the state every recovery must land on. Memoised per
   committed set (sweeps revisit the same prefixes). *)
let reference cache ~shards txns gids =
  let key = String.concat "," (List.map string_of_int gids) in
  match Hashtbl.find_opt cache key with
  | Some d -> d
  | None ->
      let cl = fresh_cluster shards in
      phase cl (fun c _ ->
          run_setup c;
          List.iteri
            (fun i txn -> if List.mem (i + 1) gids then run_txn c txn)
            txns);
      let d = digest_union cl in
      Hashtbl.add cache key d;
      d

(* --- routing / escrow smoke -------------------------------------------- *)

let test_cluster_smoke () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c dialers ->
      run_setup c;
      check Alcotest.int "shard count" 2 (Coord.shard_count c);
      (* a multi-row INSERT splits by partition yet reports one count *)
      check Alcotest.int "all rows inserted" 5
        (affected
           (Coord.exec c
              "INSERT INTO t VALUES (0,'a',1),(1,'a',2),(2,'b',3),(3,'b',4),(4,'a',5)"));
      (* full scans fan out; ORDER BY/LIMIT re-applied after the merge *)
      check Alcotest.int "fan-out scan" 5
        (List.length (rows (Coord.exec c "SELECT k, grp, qty FROM t ORDER BY k")));
      (match rows (Coord.exec c "SELECT k, grp, qty FROM t ORDER BY k DESC LIMIT 2") with
      | [ [| Value.Int 4; _; _ |]; [| Value.Int 3; _; _ |] ] -> ()
      | _ -> Alcotest.fail "merged ORDER BY DESC LIMIT");
      (* pk = literal pins to the owning shard *)
      (match rows (Coord.exec c "SELECT qty FROM t WHERE k = 4") with
      | [ [| Value.Int 5 |] ] -> ()
      | _ -> Alcotest.fail "pinned point read");
      (* the escrow view is partitioned by group: fan-out is the full view *)
      (match sort_rows (rows (Coord.exec c "SELECT * FROM v")) with
      | [
          [| Value.Str "a"; Value.Int 3; Value.Int 8 |];
          [| Value.Str "b"; Value.Int 2; Value.Int 7 |];
        ] -> ()
      | v ->
          Alcotest.failf "view contents after inserts: %d rows" (List.length v));
      (* pinned autocommit write: deltas for a remote group still ship *)
      check Alcotest.int "pinned update" 1
        (affected (Coord.exec c "UPDATE t SET qty = 14 WHERE k = 3"));
      check Alcotest.int "pinned delete" 1
        (affected (Coord.exec c "DELETE FROM t WHERE k = 2"));
      (match sort_rows (rows (Coord.exec c "SELECT * FROM v")) with
      | [
          [| Value.Str "a"; Value.Int 3; Value.Int 8 |];
          [| Value.Str "b"; Value.Int 1; Value.Int 14 |];
        ] -> ()
      | _ -> Alcotest.fail "view contents after update+delete");
      (* a table with no views commits on the single-shard fast path *)
      ignore (Coord.exec c "CREATE TABLE u (k INT NOT NULL, x INT)");
      ignore (Coord.exec c "INSERT INTO u VALUES (0, 1)");
      let s = Coord.stats c in
      check Alcotest.int "every write committed" 4
        (s.Coord.single_shard_commits + s.Coord.cross_shard_commits);
      Alcotest.(check bool) "the split insert ran 2PC" true
        (s.Coord.cross_shard_commits >= 1);
      Alcotest.(check bool) "the view-less insert skipped 2PC" true
        (s.Coord.single_shard_commits >= 1);
      (* sys.shards: the coordinator concatenates every shard's row ... *)
      (match rows (Coord.exec c "SELECT * FROM sys.shards") with
      | [ [| Value.Int 0; Value.Int 2; Value.Str "participant"; _; _; _ |];
          [| Value.Int 1; Value.Int 2; Value.Str "participant"; _; _; _ |] ] ->
          ()
      | _ -> Alcotest.fail "sys.shards through the coordinator");
      (* ... and a direct connection to one shard shows just its own *)
      let cl0 = Client.connect dialers.(0) in
      (match rows (Client.exec cl0 "SELECT * FROM sys.shards") with
      | [ [| Value.Int 0; Value.Int 2; _; _; _; _ |] ] -> ()
      | _ -> Alcotest.fail "sys.shards on a shard connection");
      Client.close cl0)

let test_txn_semantics () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      (* a cross-shard transaction is atomic across both shards *)
      run_txn c (List.hd (script ~shards 1));
      check Alcotest.int "both legs landed" 2
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      let s = Coord.stats c in
      check Alcotest.int "one 2PC commit" 1 s.Coord.cross_shard_commits;
      check Alcotest.int "prepare per participant" 2 s.Coord.prepares_sent;
      check Alcotest.int "decide per participant" 2 s.Coord.decides_sent;
      (* ROLLBACK undoes every shard's leg *)
      ignore (Coord.exec c "BEGIN");
      List.iter
        (fun s -> ignore (Coord.exec c s))
        (List.hd (script ~shards 2 |> List.tl));
      ignore (Coord.exec c "ROLLBACK");
      check Alcotest.int "rollback left no rows behind" 2
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      (* cross-shard aggregation over a base table is refused with a hint *)
      (try
         ignore (Coord.exec c "SELECT grp, SUM(qty) FROM t GROUP BY grp");
         Alcotest.fail "expected Coord_error"
       with Coord.Coord_error m ->
         Alcotest.(check bool) "hint names indexed views" true
           (String.length m > 0)))

(* --- coordinator crash at every protocol action ------------------------ *)

let test_coordinator_crash_sweep () =
  let shards = 2 in
  let txns = script ~shards 4 in
  let total =
    let cl = fresh_cluster shards in
    phase cl (fun c _ ->
        run_setup c;
        run_script c txns;
        Coord.actions c)
  in
  Alcotest.(check bool) "sweep has points" true (total > 0);
  let cache = Hashtbl.create 8 in
  let saw_indoubt = ref false in
  for n = 1 to total do
    let cl = fresh_cluster shards in
    let crashed =
      try
        phase cl (fun c _ ->
            Coord.set_crash_at_action c (Some n);
            run_setup c;
            run_script c txns;
            false)
      with Fault.Crash_point _ -> true
    in
    if not crashed then
      Alcotest.failf "action %d: armed trigger did not fire" n;
    crash_cluster cl;
    if Array.exists (fun db -> Database.indoubt_count db > 0) cl.dbs then
      saw_indoubt := true;
    phase cl (fun c _ -> ignore (Coord.recover c));
    Array.iteri
      (fun i db ->
        check Alcotest.int
          (Printf.sprintf "action %d: shard %d fully resolved" n i)
          0
          (Database.indoubt_count db))
      cl.dbs;
    let gids = committed_gids cl.cwal in
    check Alcotest.string
      (Printf.sprintf "action %d: digest union = serial prefix %s" n
         (String.concat "," (List.map string_of_int gids)))
      (reference cache ~shards txns gids)
      (digest_union cl)
  done;
  Alcotest.(check bool) "some crash left a shard in doubt" true !saw_indoubt

(* --- participant crash at every WAL force ------------------------------ *)

let participant_run ~txns fcfg =
  let shards = 2 in
  let cl = fresh_cluster shards in
  (* setup is not part of the sweep: its DDL forces are counted first
     and the armed trigger aimed past them, so every point lands inside
     the 2PC protocol *)
  Database.install_fault cl.dbs.(0) fcfg;
  let crashed =
    try
      phase cl (fun c _ ->
          run_setup c;
          run_script c txns;
          false)
    with Fault.Crash_point _ -> true
  in
  (cl, crashed)

let test_participant_crash_sweep () =
  let shards = 2 in
  let txns = script ~shards 3 in
  (* unarmed counting runs: forces during setup alone, then in total *)
  let setup_forces =
    let cl = fresh_cluster shards in
    Database.install_fault cl.dbs.(0) Fault.no_faults;
    phase cl (fun c _ -> run_setup c);
    Fault.forces_seen (Database.fault_plan cl.dbs.(0))
  in
  let total_forces =
    let cl, crashed = participant_run ~txns Fault.no_faults in
    Alcotest.(check bool) "counting run survived" false crashed;
    Fault.forces_seen (Database.fault_plan cl.dbs.(0))
  in
  Alcotest.(check bool) "workload forces past setup" true
    (total_forces > setup_forces);
  let cache = Hashtbl.create 8 in
  let sweep_point fcfg desc =
    let cl, crashed = participant_run ~txns fcfg in
    if not crashed then Alcotest.failf "%s: armed trigger did not fire" desc;
    crash_cluster cl;
    phase cl (fun c _ -> ignore (Coord.recover c));
    Array.iteri
      (fun i db ->
        check Alcotest.int
          (Printf.sprintf "%s: shard %d fully resolved" desc i)
          0
          (Database.indoubt_count db))
      cl.dbs;
    let gids = committed_gids cl.cwal in
    check Alcotest.string
      (Printf.sprintf "%s: digest union = serial prefix" desc)
      (reference cache ~shards txns gids)
      (digest_union cl)
  in
  for k = setup_forces + 1 to total_forces do
    sweep_point
      { Fault.no_faults with crash_at_force = Some k }
      (Printf.sprintf "clean participant crash at force %d" k);
    sweep_point
      {
        Fault.no_faults with
        fault_seed = k;
        crash_at_force = Some k;
        torn_tail = true;
      }
      (Printf.sprintf "torn participant crash at force %d" k)
  done

(* --- retransmit dedupe -------------------------------------------------- *)

(* A dialer whose connections can be told to die right before
   delivering the next reply: the request reaches the server, the
   response is lost — exactly the window where a blind resend could
   double-prepare. The yields let the server consume and process the
   in-flight request before the line is cut. *)
let flaky_dialer (inner : Transport.dialer) drop_next =
  {
    Transport.addr = inner.Transport.addr ^ "+flaky";
    dial =
      (fun () ->
        let c = inner.Transport.dial () in
        {
          c with
          Transport.read =
            (fun buf off len ->
              if !drop_next then begin
                drop_next := false;
                for _ = 1 to 200 do
                  Sched.yield ()
                done;
                c.Transport.close ();
                0
              end
              else c.Transport.read buf off len);
        });
  }

let test_retransmit_dedupe () =
  let db = Database.create () in
  Coord.configure_shard db ~shard:0 ~shards:1;
  Sched.run ~seed:5 (fun () ->
      let net = Transport.Loopback.create ~backlog:64 () in
      let srv = Server.create db (Transport.Loopback.listener net) in
      Server.serve srv;
      let drop = ref false in
      let cl = Client.connect (flaky_dialer (Transport.Loopback.dialer net) drop) in
      ignore (Client.exec cl "CREATE TABLE t (k INT NOT NULL, x INT)");
      ignore (Client.exec cl "BEGIN");
      ignore (Client.exec cl "INSERT INTO t VALUES (1, 10)");
      let deltas = Database.Deltas.encode [] in
      (* the Prepare lands, the Prepared ack dies with the connection *)
      drop := true;
      (try
         ignore (Client.prepare_2pc cl ~gtxn:"g:1" ~deltas);
         Alcotest.fail "expected Disconnected"
       with Client.Disconnected _ -> ());
      (* the coordinator-style resend is answered from the dedupe
         table on a fresh session — not re-executed *)
      (match Client.prepare_2pc cl ~gtxn:"g:1" ~deltas with
      | `Prepared -> ()
      | `Already_decided _ -> Alcotest.fail "not decided yet");
      check Alcotest.int "prepared exactly once" 1
        (Metrics.get (Database.metrics db) "shard.prepared");
      (* same for the decision: the ack dies, the resend is a no-op *)
      drop := true;
      (try
         Client.decide_2pc cl ~gtxn:"g:1" ~committed:true;
         Alcotest.fail "expected Disconnected"
       with Client.Disconnected _ -> ());
      Client.decide_2pc cl ~gtxn:"g:1" ~committed:true;
      check Alcotest.int "committed exactly once" 1
        (List.length (rows (Client.exec cl "SELECT k FROM t")));
      check Alcotest.int "nothing left in doubt" 0 (Database.indoubt_count db);
      Alcotest.(check bool) "decision remembered" true
        (Database.gtxn_status db "g:1" = `Decided true);
      Alcotest.(check bool) "two reconnects behind the retries" true
        (Client.reconnects cl = 2);
      Client.close cl;
      Server.drain srv)

(* --- prepare lost before the shard sees it ------------------------------ *)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

(* A dialer whose connections silently drop selected outbound frames:
   the [k]-th write containing [needle] never reaches the server and the
   line dies — a connection failure BEFORE the shard processes the frame
   (the flaky dialer above covers failure after). *)
let black_hole_dialer (inner : Transport.dialer) needle drops =
  let seen = ref 0 in
  {
    inner with
    Transport.dial =
      (fun () ->
        let c = inner.Transport.dial () in
        {
          c with
          Transport.write =
            (fun s ->
              if contains s needle then begin
                incr seen;
                if List.mem !seen !drops then c.Transport.close ()
                else c.Transport.write s
              end
              else c.Transport.write s);
        });
  }

(* The regression the review found: when an op shard's connection dies
   before the server processes the Prepare, the disconnect rolls the
   shard's session transaction back — a blind resend would prepare a
   brand-new empty transaction and vote yes, silently committing a
   partial transaction. The coordinator must treat the dead line as a No
   vote and abort everywhere. *)
let cross_shard_cluster ?config seed f =
  let shards = 2 in
  let dbs =
    Array.init shards (fun i ->
        let db = Database.create () in
        Coord.configure_shard db ~shard:i ~shards;
        db)
  in
  Sched.run ~seed (fun () ->
      let dialers, drain = Server.serve_loopback ?config dbs in
      let r = f dbs dialers in
      drain ();
      r)

let test_prepare_loss_aborts () =
  let shards = 2 in
  cross_shard_cluster 13 (fun dbs dialers ->
      let drops = ref [] in
      let dialers =
        Array.mapi
          (fun i d -> if i = 0 then black_hole_dialer d "coord:1" drops else d)
          dialers
      in
      let c = Coord.create dialers in
      ignore (Coord.exec c "CREATE TABLE t (k INT NOT NULL, x INT)");
      let k0 = (keys_owned_by ~shards 0 1).(0)
      and k1 = (keys_owned_by ~shards 1 1).(0) in
      let legs =
        [
          Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0;
          Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k1;
        ]
      in
      ignore (Coord.exec c "BEGIN");
      List.iter (fun s -> ignore (Coord.exec c s)) legs;
      (* the first 2PC frame carrying this gtxn — shard 0's Prepare, the
         one whose session transaction holds the shard's DML — vanishes *)
      drops := [ 1 ];
      (try
         ignore (Coord.exec c "COMMIT");
         Alcotest.fail "expected the transaction to abort"
       with Coord.Coord_error _ -> ());
      (* atomicity: no leg survived anywhere, nothing left in doubt *)
      check Alcotest.int "no partial commit" 0
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Array.iteri
        (fun i db ->
          check Alcotest.int
            (Printf.sprintf "shard %d not in doubt" i)
            0
            (Database.indoubt_count db))
        dbs;
      check Alcotest.int "the abort was counted" 1 (Coord.stats c).Coord.aborts;
      (* the coordinator session survives: the same work then commits *)
      run_txn c legs;
      check Alcotest.int "retried transaction landed both legs" 2
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Coord.close c)

(* --- decision re-delivery without an explicit recover ------------------- *)

let test_decision_redelivery () =
  let shards = 2 in
  cross_shard_cluster 17 (fun dbs dialers ->
      let drops = ref [] in
      let dialers =
        Array.mapi
          (fun i d -> if i = 1 then black_hole_dialer d "coord:1" drops else d)
          dialers
      in
      let c = Coord.create dialers in
      ignore (Coord.exec c "CREATE TABLE t (k INT NOT NULL, x INT)");
      let k0 = keys_owned_by ~shards 0 2 and k1 = keys_owned_by ~shards 1 1 in
      (* shard 1's frames with this gtxn: Prepare (#1, delivered), then
         the Decide and its one retry (#2, #3) both vanish — the commit
         succeeds but shard 1 is left in doubt, holding its locks *)
      drops := [ 2; 3 ];
      run_txn c
        [
          Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0.(0);
          Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k1.(0);
        ];
      check Alcotest.int "undelivered decision leaves shard 1 in doubt" 1
        (Database.indoubt_count dbs.(1));
      (* the next commit re-delivers the logged decision first — no
         operator recover() needed *)
      ignore
        (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 3)" k0.(1)));
      check Alcotest.int "re-delivery resolved the in-doubt txn" 0
        (Database.indoubt_count dbs.(1));
      check Alcotest.int "all three rows visible" 3
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Coord.close c)

(* --- a stale abort decision is a No vote ----------------------------- *)

(* A Prepare can meet an existing decision only through a stale frame or
   a reused gtxn id. Shard 0 is scripted to remember an abort for the id
   the next cross-shard commit will carry: its Prepare reply is a
   Decided-abort, which must abort the whole transaction. Counted as a
   yes, shard 1 would commit its leg while shard 0's leg never
   prepared. *)
let test_stale_abort_is_no_vote () =
  let shards = 2 in
  cross_shard_cluster 19 (fun dbs dialers ->
      let c = Coord.create dialers in
      ignore (Coord.exec c "CREATE TABLE t (k INT NOT NULL, x INT)");
      let k0 = keys_owned_by ~shards 0 2 and k1 = (keys_owned_by ~shards 1 1).(0) in
      let direct = Client.connect dialers.(0) in
      ignore (Client.exec direct "BEGIN");
      ignore
        (Client.exec direct (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" k0.(1)));
      let deltas = Database.Deltas.encode [] in
      ignore (Client.prepare_2pc direct ~gtxn:"coord:1" ~deltas);
      Client.decide_2pc direct ~gtxn:"coord:1" ~committed:false;
      Client.close direct;
      check Alcotest.bool "shard 0 remembers an abort for coord:1" true
        (Database.gtxn_status dbs.(0) "coord:1" = `Decided false);
      ignore (Coord.exec c "BEGIN");
      ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0.(0)));
      ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k1));
      let m = Coord.metrics c in
      let forces0 = Metrics.get m "log.force" in
      (try
         ignore (Coord.exec c "COMMIT");
         Alcotest.fail "expected the transaction to abort"
       with Coord.Coord_error msg ->
         check Alcotest.bool "abort names the stale decision" true
           (contains msg "already aborted"));
      (* presumed abort: the abort decision is appended, never forced *)
      check Alcotest.int "no coordinator force on abort" forces0
        (Metrics.get m "log.force");
      check Alcotest.int "no leg committed anywhere" 0
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Array.iteri
        (fun i db ->
          check Alcotest.int
            (Printf.sprintf "shard %d not in doubt" i)
            0
            (Database.indoubt_count db))
        dbs;
      check Alcotest.int "counted as a No vote" 1 (Metrics.get m "coord.votes.no");
      check Alcotest.int "no yes vote" 0 (Metrics.get m "coord.votes.yes");
      (* both op shards' session transactions were rolled back: the same
         work commits on the next id *)
      run_txn c
        [
          Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0.(0);
          Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k1;
        ];
      check Alcotest.int "retried transaction landed both legs" 2
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Coord.close c)

(* --- force budget -------------------------------------------------------- *)

(* Presumed abort forces exactly one coordinator record per 2PC commit —
   the decision — and none on the local fast path; each participant
   forces its Prepare and its Commit. Any other coordinator force on
   this path, such as one on the begin record, fails the budget. *)
let test_force_budget () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  let cm = Metrics.create () in
  cl.cwal <- Wal.create cm;
  let forces () =
    ( Metrics.get cm "log.force",
      Array.map (fun db -> Metrics.get (Database.metrics db) "log.force") cl.dbs )
  in
  let delta (c0, p0) (c1, p1) = (c1 - c0, Array.map2 (fun a b -> b - a) p0 p1) in
  phase cl (fun c _ ->
      run_setup c;
      ignore (Coord.exec c "CREATE TABLE u (k INT NOT NULL, x INT)");
      let before = forces () in
      run_txn c (List.hd (script ~shards 1));
      let coord, parts = delta before (forces ()) in
      check Alcotest.int "2PC commit: one coordinator force" 1 coord;
      check Alcotest.(array int) "2PC commit: Prepare + Commit per shard" [| 2; 2 |]
        parts;
      check Alcotest.int "it was a 2PC commit" 1
        (Coord.stats c).Coord.cross_shard_commits;
      let before = forces () in
      ignore (Coord.exec c "INSERT INTO u VALUES (0, 1)");
      let coord, parts = delta before (forces ()) in
      check Alcotest.int "fast path: no coordinator force" 0 coord;
      check Alcotest.int "fast path: one participant commit force" 1
        (Array.fold_left ( + ) 0 parts);
      check Alcotest.int "it took the fast path" 1
        (Coord.stats c).Coord.single_shard_commits)

(* --- restart before recovery, and pull recovery ------------------------ *)

let gtxn_of_commit = function
  | Sql.Message m -> (
      match String.index_opt m '(' with
      | Some i -> List.hd (String.split_on_char ',' (String.sub m (i + 1) (String.length m - i - 1)))
      | None -> Alcotest.failf "commit message without a gtxn: %s" m)
  | _ -> Alcotest.fail "expected a commit message"

let indoubt_on dialer =
  let cl = Client.connect dialer in
  let r =
    List.map
      (function
        | [| Value.Str g; Value.Int _ |] -> g
        | _ -> Alcotest.fail "malformed sys.indoubt row")
      (rows (Client.exec cl "SELECT * FROM sys.indoubt"))
  in
  Client.close cl;
  r

(* Crash the coordinator once shard 0 has prepared (action 3: begin
   record, Prepare to shard 0, then the crash before shard 1's). The
   begin record was never forced, so the restarted coordinator's log
   knows nothing of coord:1 — yet its next gtxn must not reuse the id,
   or shard 0 would answer the new Prepare from its dedupe table with
   the old transaction. [recover] then finds coord:1 in sys.indoubt and
   presumes it aborted. *)
let test_restart_and_pull_recovery () =
  let shards = 2 in
  let txns = script ~shards 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c dialers ->
      run_setup c;
      Coord.set_crash_at_action c (Some 3);
      (try
         run_txn c (List.nth txns 0);
         Alcotest.fail "armed trigger did not fire"
       with Fault.Crash_point _ -> ());
      (* the coordinator process dies: its connections drop, shard 1
         rolls its unprepared session transaction back *)
      Coord.close c;
      check Alcotest.(list string) "shard 0 holds coord:1 in doubt" [ "coord:1" ]
        (indoubt_on dialers.(0));
      check Alcotest.(list string) "shard 1 holds nothing" [] (indoubt_on dialers.(1));
      let cwal = Wal.crash (Coord.wal c) (Metrics.create ()) in
      let c2 = Coord.create ~wal:cwal dialers in
      ignore (Coord.exec c2 "BEGIN");
      List.iter (fun s -> ignore (Coord.exec c2 s)) (List.nth txns 1);
      let g = gtxn_of_commit (Coord.exec c2 "COMMIT") in
      Alcotest.(check bool) (g ^ " is a fresh id") true (g <> "coord:1");
      check Alcotest.(list string) "coord:1 still in doubt before recover"
        [ "coord:1" ] (indoubt_on dialers.(0));
      (* the log names only the new gtxn; coord:1 comes from sys.indoubt *)
      check Alcotest.int "both gtxns resolved" 2 (Coord.recover c2);
      Array.iteri
        (fun i d ->
          check Alcotest.(list string)
            (Printf.sprintf "shard %d resolved" i)
            [] (indoubt_on d))
        dialers;
      Alcotest.(check bool) "sys.gtxns shows coord:1 aborted" true
        (List.mem
           [| Value.Str "coord:1"; Value.Str "aborted" |]
           (rows (Coord.exec c2 "SELECT gtxn, phase FROM sys.gtxns")));
      check Alcotest.int "only the second transaction's rows" 2
        (List.length (rows (Coord.exec c2 "SELECT k FROM t")));
      Coord.close c2);
  check Alcotest.string "digest union = serial second transaction"
    (let ref_cl = fresh_cluster shards in
     phase ref_cl (fun c _ ->
         run_setup c;
         run_txn c (List.nth txns 1));
     digest_union ref_cl)
    (digest_union cl)

(* Two coordinators share the shards and both crash mid-prepare: each
   recovery claims only the in-doubt gtxns carrying its own name. *)
let test_recover_claims_own_gtxns () =
  let shards = 2 in
  cross_shard_cluster 21 (fun dbs dialers ->
      let k0 = keys_owned_by ~shards 0 2 and k1 = keys_owned_by ~shards 1 2 in
      let setup = Coord.create ~name:"setup" dialers in
      ignore (Coord.exec setup "CREATE TABLE t (k INT NOT NULL, x INT)");
      Coord.close setup;
      let crash_mid_prepare name j =
        let cwal = Wal.create (Metrics.create ()) in
        let c = Coord.create ~name ~wal:cwal dialers in
        ignore (Coord.exec c "BEGIN");
        ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0.(j)));
        ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k1.(j)));
        (* begin record (1), shard 0's Prepare (2), crash before shard 1's *)
        Coord.set_crash_at_action c (Some 3);
        (try
           ignore (Coord.exec c "COMMIT");
           Alcotest.fail "armed trigger did not fire"
         with Fault.Crash_point _ -> ());
        Coord.close c;
        Wal.crash cwal (Metrics.create ())
      in
      let wal_a = crash_mid_prepare "a" 0 in
      let wal_b = crash_mid_prepare "b" 1 in
      check Alcotest.(list string) "both in doubt on shard 0" [ "a:1"; "b:1" ]
        (List.map fst (Database.indoubt_gtxns dbs.(0)));
      let a = Coord.create ~name:"a" ~wal:wal_a dialers in
      check Alcotest.int "a resolves its own gtxn only" 1 (Coord.recover a);
      Coord.close a;
      check Alcotest.(list string) "b's gtxn left in doubt" [ "b:1" ]
        (List.map fst (Database.indoubt_gtxns dbs.(0)));
      let b = Coord.create ~name:"b" ~wal:wal_b dialers in
      check Alcotest.int "b resolves its own" 1 (Coord.recover b);
      Array.iteri
        (fun i db ->
          check Alcotest.int
            (Printf.sprintf "shard %d not in doubt" i)
            0
            (Database.indoubt_count db))
        dbs;
      check Alcotest.int "both presumed aborted" 0
        (List.length (rows (Coord.exec b "SELECT k FROM t")));
      Coord.close b)

(* A dialer whose connections die on every write while [down] is set:
   the shard is unreachable, but its engine keeps what it holds. *)
let down_dialer (inner : Transport.dialer) down =
  {
    inner with
    Transport.dial =
      (fun () ->
        let c = inner.Transport.dial () in
        {
          c with
          Transport.write =
            (fun s -> if !down then c.Transport.close () else c.Transport.write s);
        });
  }

(* Both shards prepare coord:1 and the coordinator dies at its decision
   (action 4). Returns the crashed decision log — it names no coord:1 —
   and keys the test can still write on each shard. *)
let crash_both_prepared dbs dialers =
  let shards = 2 in
  let k0 = keys_owned_by ~shards 0 2 and k1 = keys_owned_by ~shards 1 1 in
  let cwal = Wal.create (Metrics.create ()) in
  let c = Coord.create ~wal:cwal dialers in
  ignore (Coord.exec c "CREATE TABLE t (k INT NOT NULL, x INT)");
  ignore (Coord.exec c "BEGIN");
  ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0.(0)));
  ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k1.(0)));
  Coord.set_crash_at_action c (Some 4);
  (try
     ignore (Coord.exec c "COMMIT");
     Alcotest.fail "armed trigger did not fire"
   with Fault.Crash_point _ -> ());
  Coord.close c;
  Array.iteri
    (fun i db ->
      check Alcotest.(list string)
        (Printf.sprintf "shard %d holds coord:1" i)
        [ "coord:1" ]
        (List.map fst (Database.indoubt_gtxns db)))
    dbs;
  (Wal.crash cwal (Metrics.create ()), k0.(1))

let shard1_down_cluster seed f =
  cross_shard_cluster seed (fun dbs dialers ->
      let down = ref false in
      let dialers =
        Array.mapi (fun i d -> if i = 1 then down_dialer d down else d) dialers
      in
      f dbs dialers down)

(* Shard 1 is down during [recover], so only shard 0 reports coord:1.
   Shard 1 must still be owed the abort, and get it at the next commit
   once its line is back, instead of holding coord:1's locks forever. *)
let test_pull_recovery_unreachable_shard () =
  shard1_down_cluster 23 (fun dbs dialers down ->
      let cwal, k = crash_both_prepared dbs dialers in
      let c = Coord.create ~wal:cwal dialers in
      down := true;
      check Alcotest.int "coord:1 resolved" 1 (Coord.recover c);
      check Alcotest.int "shard 0 got the abort" 0 (Database.indoubt_count dbs.(0));
      check Alcotest.int "shard 1 still holds coord:1" 1 (Database.indoubt_count dbs.(1));
      check Alcotest.int "the coordinator knows it owes shard 1 the abort" 1
        (Metrics.get (Coord.metrics c) "coord.indoubt");
      down := false;
      ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k));
      check Alcotest.int "the next commit resolved shard 1" 0
        (Database.indoubt_count dbs.(1));
      check Alcotest.int "only the new row" 1
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Coord.close c)

(* As above, but the coordinator dies again before shard 1 is back: its
   appended abort for coord:1 is lost, and the reachable shard no longer
   holds coord:1, so nothing the next incarnation can read names it. The
   shard [recover] could not read is read again at the next commit. *)
let test_pull_recovery_rereads_unreachable_shard () =
  shard1_down_cluster 29 (fun dbs dialers down ->
      let cwal, k = crash_both_prepared dbs dialers in
      let c = Coord.create ~wal:cwal dialers in
      down := true;
      check Alcotest.int "coord:1 resolved" 1 (Coord.recover c);
      Coord.close c;
      (* the new incarnation connects while shard 1 blips back up *)
      down := false;
      let c = Coord.create ~wal:(Wal.crash (Coord.wal c) (Metrics.create ())) dialers in
      down := true;
      check Alcotest.int "no log record or reachable shard names coord:1" 0
        (Coord.recover c);
      check Alcotest.(list string) "shard 1 still holds coord:1" [ "coord:1" ]
        (List.map fst (Database.indoubt_gtxns dbs.(1)));
      down := false;
      ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k));
      check Alcotest.int "the next commit re-read shard 1 and resolved it" 0
        (Database.indoubt_count dbs.(1));
      check Alcotest.int "only the new row" 1
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Coord.close c)

(* Ids come from forced blocks of 1024: a block is reserved when the
   coordinator starts and again when the last one runs out — one extra
   force per block, never one per transaction — and a restart resumes
   past the last block. *)
let test_gid_blocks () =
  let shards = 2 in
  cross_shard_cluster 27 (fun _ dialers ->
      let cm = Metrics.create () in
      let cwal = Wal.create cm in
      let c = Coord.create ~wal:cwal dialers in
      check Alcotest.int "create reserves the first block" 1
        (Metrics.get cm "log.force");
      ignore (Coord.exec c "CREATE TABLE t (k INT NOT NULL, x INT)");
      let k0 = keys_owned_by ~shards 0 1026 and k1 = keys_owned_by ~shards 1 1026 in
      let commit c j =
        ignore (Coord.exec c "BEGIN");
        ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" k0.(j)));
        ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" k1.(j)));
        gtxn_of_commit (Coord.exec c "COMMIT")
      in
      let f0 = Metrics.get cm "log.force" in
      let ids = List.init 1025 (commit c) in
      check Alcotest.(list string) "dense within one incarnation"
        (List.init 1025 (fun j -> Printf.sprintf "coord:%d" (j + 1)))
        ids;
      check Alcotest.int "one force per decision plus one per block" (1025 + 1)
        (Metrics.get cm "log.force" - f0);
      Coord.close c;
      let c2 = Coord.create ~wal:(Wal.crash cwal (Metrics.create ())) dialers in
      check Alcotest.string "a restart skips the rest of the block" "coord:2049"
        (commit c2 1025);
      Coord.close c2)

(* --- cluster observability: sys.gtxns, trace, wire catalogs ------------ *)

(* An armed crash at action 4 stops the protocol at the decision force:
   log_start (1) and both Prepares (2, 3) have happened, so the global
   transaction is mid-flight with two yes votes — exactly the moment
   sys.gtxns must show one "deciding" row. Recovery then presume-aborts
   it and the row drains into the recent list. *)
let test_gtxns_inflight () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      Coord.set_crash_at_action c (Some 4);
      (try
         run_txn c (List.hd (script ~shards 1));
         Alcotest.fail "armed trigger did not fire"
       with Fault.Crash_point _ -> ());
      Coord.set_crash_at_action c None;
      (match rows (Coord.exec c "SELECT * FROM sys.gtxns") with
      | [
          [|
            Value.Str "coord:1";
            Value.Str "deciding";
            Value.Str "0,1";
            Value.Str "0:yes,1:yes";
            Value.Int _;
            Value.Int 0;
          |];
        ] -> ()
      | rs -> Alcotest.failf "in-flight sys.gtxns: %d row(s)" (List.length rs));
      (* the catalog answers with full sys.* semantics: WHERE/projection *)
      (match
         rows
           (Coord.exec c
              "SELECT gtxn FROM sys.gtxns WHERE phase = 'deciding'")
       with
      | [ [| Value.Str "coord:1" |] ] -> ()
      | _ -> Alcotest.fail "WHERE/projection over sys.gtxns");
      (* recovery resolves it (presumed abort) and the row drains *)
      check Alcotest.int "one txn resolved" 1 (Coord.recover c);
      (match rows (Coord.exec c "SELECT gtxn, phase FROM sys.gtxns") with
      | [ [| Value.Str "coord:1"; Value.Str "aborted" |] ] -> ()
      | _ -> Alcotest.fail "sys.gtxns after recovery");
      Array.iteri
        (fun i db ->
          check Alcotest.int
            (Printf.sprintf "shard %d not in doubt" i)
            0
            (Database.indoubt_count db))
        cl.dbs;
      (* a clean cross-shard commit lands newest-first ahead of it *)
      run_txn c (List.hd (script ~shards 2 |> List.tl));
      (match rows (Coord.exec c "SELECT gtxn, phase FROM sys.gtxns") with
      | [
          [| Value.Str "coord:2"; Value.Str "committed" |];
          [| Value.Str "coord:1"; Value.Str "aborted" |];
        ] -> ()
      | _ -> Alcotest.fail "recent gtxns after a clean commit");
      (* the typed 2PC metrics saw both rounds *)
      let m = Coord.metrics c in
      check Alcotest.int "four yes votes" 4 (Metrics.get m "coord.votes.yes");
      check Alcotest.int "one 2PC commit" 1 (Metrics.get m "coord.commit.2pc");
      check Alcotest.int "nothing in doubt" 0 (Metrics.get m "coord.indoubt"))

(* Two identical-seed runs with tracing on, coordinator and shards:
   both streams must be byte-identical, and the 2PC events on each side
   must carry the same gtxn and coordinator correlation id. *)
let coord_trace_run seed =
  let shards = 2 in
  let cbuf = Buffer.create 1024 and sbuf = Buffer.create 1024 in
  let cl = fresh_cluster shards in
  Array.iter
    (fun db ->
      let tr = Database.trace db in
      Trace.add_sink tr (fun r -> Buffer.add_string sbuf (Trace.to_json r ^ "\n"));
      Trace.set_enabled tr true)
    cl.dbs;
  let ctr = Trace.create ~clock:Sched.now ~fiber:Sched.self () in
  Trace.add_sink ctr (fun r -> Buffer.add_string cbuf (Trace.to_json r ^ "\n"));
  Trace.set_enabled ctr true;
  phase ~seed ~trace:ctr cl (fun c _ ->
      run_setup c;
      run_script c (script ~shards 2));
  (Buffer.contents cbuf, Buffer.contents sbuf)

let test_trace_determinism () =
  let c1, s1 = coord_trace_run 29 and c2, s2 = coord_trace_run 29 in
  check Alcotest.string "coordinator stream is byte-deterministic" c1 c2;
  check Alcotest.string "shard streams are byte-deterministic" s1 s2;
  Alcotest.(check bool) "a different seed reorders the stream" true
    (let c3, _ = coord_trace_run 31 in
     c3 <> c1 || String.length c1 > 0);
  (* gtxn correlation across the cluster: the first cross-shard COMMIT is
     statement 7 (3 setup statements, then BEGIN/INSERT/INSERT/COMMIT), so
     its coordinator-assigned rid is 7 — stamped on the coordinator's own
     prepare events AND on the Prepare frames the shards traced *)
  let expect what hay needle =
    Alcotest.(check bool) what true (contains hay needle)
  in
  expect "coordinator routed statements" c1 {|"ev": "coord.route"|};
  expect "coordinator prepare, correlated" c1
    {|"ev": "coord.prepare", "gtxn": "coord:1", "rid": 7|};
  expect "coordinator saw the votes" c1
    {|"ev": "coord.vote", "gtxn": "coord:1"|};
  expect "coordinator logged the decision" c1
    {|"ev": "coord.decision", "gtxn": "coord:1", "committed": true|};
  expect "coordinator decide fan-out, correlated" c1
    {|"ev": "coord.decide", "gtxn": "coord:1", "rid": 7|};
  expect "participants traced the Prepare with the same identity" s1
    {|"gtxn": "coord:1", "rid": 7, "outcome": "prepared"|};
  expect "participants traced the Decide with the same identity" s1
    {|"gtxn": "coord:1", "rid": 7, "committed": true, "outcome": "applied"|}

(* A 2-shard cluster behind the coordinator's wire console (named
   "coord-console") on its own loopback net. [f] gets the shard engines,
   the coordinator, the console server and a console dialer. *)
let console_cluster ?shard_config seed f =
  cross_shard_cluster ?config:shard_config seed (fun dbs dialers ->
      let c = Coord.create dialers in
      let cnet = Transport.Loopback.create ~backlog:16 () in
      let csrv =
        Coord.server
          ~config:{ Server.default_config with name = "coord-console" }
          c
          (Transport.Loopback.listener cnet)
      in
      Server.serve csrv;
      let r = f dbs c csrv (Transport.Loopback.dialer cnet) in
      Coord.close c;
      Server.drain csrv;
      r)

(* The whole observability surface over the wire: an ordinary client
   connected to the coordinator console sees the coordinator catalogs,
   the Prometheus rollup, and shard-side slow-query rows carrying the
   coordinator's correlation ids. *)
let test_catalogs_over_wire () =
  let shards = 2 in
  console_cluster
    ~shard_config:{ Server.default_config with slow_query_ticks = Some 0 }
    23
    (fun _ c _ dial ->
      let cl = Client.connect dial in
      check Alcotest.string "welcome names the coordinator" "coord-console"
        (Client.server_name cl);
      ignore
        (Client.exec cl
           "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT NOT \
            NULL)");
      ignore
        (Client.exec cl
           "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY \
            grp USING ESCROW");
      let k0 = (keys_owned_by ~shards 0 1).(0)
      and k1 = (keys_owned_by ~shards 1 1).(0) in
      ignore (Client.exec cl "BEGIN");
      ignore
        (Client.exec cl (Printf.sprintf "INSERT INTO t VALUES (%d, 'a', 1)" k0));
      ignore
        (Client.exec cl (Printf.sprintf "INSERT INTO t VALUES (%d, 'b', 2)" k1));
      (match Client.exec cl "COMMIT" with
      | Sql.Message m ->
          Alcotest.(check bool) "2PC commit reported" true
            (contains m "2 participants")
      | _ -> Alcotest.fail "expected a commit message");
      let commit_rid = Coord.last_rid c in
      (* sys.gtxns answers over the wire, WHERE/projection included *)
      (match
         rows (Client.exec cl "SELECT gtxn, phase FROM sys.gtxns")
       with
      | [ [| Value.Str "coord:1"; Value.Str "committed" |] ] -> ()
      | _ -> Alcotest.fail "sys.gtxns over the wire");
      (* sys.coord_shards: one health row per shard, traffic counted *)
      (match rows (Client.exec cl "SELECT * FROM sys.coord_shards") with
      | [
          [| Value.Int 0; Value.Str _; _; Value.Int p0; Value.Int d0; _; _; _ |];
          [| Value.Int 1; Value.Str _; _; Value.Int p1; Value.Int d1; _; _; _ |];
        ] ->
          check Alcotest.int "prepares counted" 2 (p0 + p1);
          check Alcotest.int "decides counted" 2 (d0 + d1)
      | _ -> Alcotest.fail "sys.coord_shards over the wire");
      (* sys.cluster_metrics: rollup rows from the coordinator and every
         shard, in one relation *)
      let nodes =
        rows (Client.exec cl "SELECT node FROM sys.cluster_metrics")
        |> List.filter_map (function
             | [| Value.Str n |] -> Some n
             | _ -> None)
        |> List.sort_uniq compare
      in
      check
        Alcotest.(list string)
        "every node reports" [ "coord"; "shard0"; "shard1" ] nodes;
      Alcotest.(check bool) "the coordinator's 2PC counters are in the rollup"
        true
        (rows
           (Client.exec cl
              "SELECT value FROM sys.cluster_metrics WHERE counter = \
               'coord.commit.2pc'")
        = [ [| Value.Int 1 |] ]);
      (* Metrics_req returns the coordinator registry, not a shard's *)
      let prom = Client.metrics cl in
      Alcotest.(check bool) "prometheus rollup has the vote counters" true
        (contains prom "ivdb_coord_votes_yes 2");
      Alcotest.(check bool) "prometheus rollup has the phase histograms" true
        (contains prom "ivdb_coord_prepare_ticks");
      (* shard-side slow queries carry the coordinator's correlation ids:
         small sequential rids (client-originated ones are >= 65536) *)
      let slow = rows (Client.exec cl "SELECT rid, sql FROM sys.slow_queries") in
      Alcotest.(check bool) "shard 0 recorded coordinator statements" true
        (List.length slow > 0);
      List.iter
        (function
          | [| Value.Int rid; Value.Str _ |] ->
              Alcotest.(check bool) "rid is coordinator-assigned" true
                (rid >= 1 && rid < 65536)
          | _ -> Alcotest.fail "malformed slow-query row")
        slow;
      Alcotest.(check bool) "the COMMIT's rid reached the shard log" true
        (List.exists
           (function
             | [| Value.Int rid; Value.Str _ |] -> rid = commit_rid
             | _ -> false)
           slow);
      Client.close cl)

let wait_until what cond =
  let rec go n =
    if not (cond ()) then
      if n = 0 then Alcotest.failf "timed out waiting for %s" what
      else begin
        Sched.yield ();
        go (n - 1)
      end
  in
  go 10_000

(* Regression: a console client that goes away mid-transaction must not
   leave the coordinator transaction, and the shard transaction holding
   its locks, open for every client after it. *)
let test_console_disconnect_rolls_back () =
  console_cluster 29 (fun dbs c csrv dial ->
      let k0 = (keys_owned_by ~shards:2 0 1).(0) in
      let a = Client.connect dial in
      ignore (Client.exec a "CREATE TABLE t (k INT NOT NULL, x INT)");
      ignore (Client.exec a "BEGIN");
      ignore (Client.exec a (Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0));
      Client.close a;
      wait_until "the session to close" (fun () -> Server.inflight csrv = 0);
      Alcotest.(check bool) "coordinator transaction closed" false
        (Coord.in_transaction c);
      check Alcotest.int "shard 0 holds no open transaction" 0
        (List.length (Ivdb_txn.Txn.active_txns (Database.mgr dbs.(0))));
      let b = Client.connect dial in
      ignore (Client.exec b "BEGIN");
      check Alcotest.int "the insert was rolled back" 0
        (List.length
           (rows
              (Client.exec b (Printf.sprintf "SELECT k FROM t WHERE k = %d" k0))));
      ignore (Client.exec b "COMMIT");
      Client.close b)

(* Drain on the console follows the engine server's rules: a session
   inside the transaction may still COMMIT, and an idle session's next
   statement is answered with E_draining and Bye. The idle session
   speaks raw frames so the Bye is observed, not reconnected past. *)
let test_console_drain () =
  console_cluster 31 (fun _ c csrv dial ->
      let k0 = (keys_owned_by ~shards:2 0 1).(0)
      and k1 = (keys_owned_by ~shards:2 1 1).(0) in
      let idle = Transport.Frame_io.create (dial.Transport.dial ()) in
      Transport.Frame_io.send idle
        (Wire.Hello { version = Wire.version; client = "idle"; resume = None });
      (match Transport.Frame_io.recv idle with
      | Some (Wire.Welcome _) -> ()
      | _ -> Alcotest.fail "expected Welcome");
      let busy = Client.connect dial in
      ignore (Client.exec busy "CREATE TABLE t (k INT NOT NULL, x INT)");
      ignore (Client.exec busy "BEGIN");
      ignore (Client.exec busy (Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0));
      Server.drain csrv;
      ignore (Client.exec busy (Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k1));
      ignore (Client.exec busy "COMMIT");
      check Alcotest.int "the drained transaction committed both rows" 2
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Transport.Frame_io.send idle
        (Wire.Exec { seq = 1; rid = 0; sql = "SELECT k FROM t" });
      (match Transport.Frame_io.recv idle with
      | Some (Wire.Err { code; _ }) ->
          check Alcotest.string "idle session turned away" "draining"
            (Wire.error_code_name code)
      | _ -> Alcotest.fail "expected Err E_draining");
      Alcotest.(check bool) "then Bye" true
        (Transport.Frame_io.recv idle = Some Wire.Bye);
      Client.close busy)

(* --- coordinator restart without crash --------------------------------- *)

let test_recover_is_idempotent () =
  let shards = 2 in
  let txns = script ~shards 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      run_script c txns);
  let before = digest_union cl in
  (* a clean restart re-delivers every decision; participants answer
     from their dedupe tables and nothing changes *)
  crash_cluster cl;
  let resolved = phase cl (fun c _ -> Coord.recover c) in
  check Alcotest.int "every started txn resolved" 2 resolved;
  check Alcotest.string "re-delivery changed nothing" before (digest_union cl);
  let resolved = phase cl (fun c _ -> Coord.recover c) in
  check Alcotest.int "second recovery is a no-op too" 2 resolved;
  check Alcotest.string "still unchanged" before (digest_union cl)

(* Routing metadata is re-derived from the DDL in the coordinator's log:
   a restarted coordinator must keep refusing partition-column updates
   (silently broadcasting one would strand rows on the wrong shard) and
   keep knowing each table's partition column. *)
let test_routing_metadata_survives_restart () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      run_script c (script ~shards 1));
  crash_cluster cl;
  phase cl (fun c _ ->
      ignore (Coord.recover c);
      (try
         ignore (Coord.exec c "UPDATE t SET k = 99 WHERE qty = 1");
         Alcotest.fail "expected partition-column refusal"
       with Coord.Coord_error m ->
         Alcotest.(check bool) "guard still fires after restart" true
           (contains m "partition column"));
      (* the aggregation-refusal hint still names the partition column *)
      (try
         ignore (Coord.exec c "SELECT grp, SUM(qty) FROM t GROUP BY grp");
         Alcotest.fail "expected aggregation refusal"
       with Coord.Coord_error m ->
         Alcotest.(check bool) "hint still names the pk" true
           (contains m "k = <literal>"));
      (* pinned point reads and view fan-out still answer correctly *)
      let k = (keys_owned_by ~shards 0 1).(0) in
      check Alcotest.int "pinned point read" 1
        (List.length
           (rows (Coord.exec c (Printf.sprintf "SELECT qty FROM t WHERE k = %d" k))));
      check Alcotest.int "view fan-out" 2
        (List.length (rows (Coord.exec c "SELECT * FROM v"))))

let () =
  Alcotest.run "coord"
    [
      ( "routing",
        [
          Alcotest.test_case "cluster smoke: routing, views, sys.shards"
            `Quick test_cluster_smoke;
          Alcotest.test_case "cross-shard transactions and aborts" `Quick
            test_txn_semantics;
        ] );
      ( "crash",
        [
          Alcotest.test_case "coordinator crash at every protocol action"
            `Slow test_coordinator_crash_sweep;
          Alcotest.test_case "participant crash at every force point" `Slow
            test_participant_crash_sweep;
          Alcotest.test_case "recovery is idempotent" `Quick
            test_recover_is_idempotent;
          Alcotest.test_case "routing metadata survives a restart" `Quick
            test_routing_metadata_survives_restart;
        ] );
      ( "dedupe",
        [
          Alcotest.test_case "prepare/decide retransmits are deduped" `Quick
            test_retransmit_dedupe;
          Alcotest.test_case "a lost Prepare aborts instead of part-committing"
            `Quick test_prepare_loss_aborts;
          Alcotest.test_case "undelivered decisions re-deliver at next commit"
            `Quick test_decision_redelivery;
          Alcotest.test_case "a stale abort decision is a No vote" `Quick
            test_stale_abort_is_no_vote;
        ] );
      ( "2pc",
        [
          Alcotest.test_case "force budget: 2PC and fast path" `Quick
            test_force_budget;
          Alcotest.test_case "restart before recover, then pull recovery"
            `Quick test_restart_and_pull_recovery;
          Alcotest.test_case "recover claims only its own gtxns" `Quick
            test_recover_claims_own_gtxns;
          Alcotest.test_case "a shard down during recover is still resolved"
            `Quick test_pull_recovery_unreachable_shard;
          Alcotest.test_case "recover re-reads a shard it could not reach"
            `Quick test_pull_recovery_rereads_unreachable_shard;
          Alcotest.test_case "gtxn ids come from forced blocks" `Quick
            test_gid_blocks;
        ] );
      ( "observability",
        [
          Alcotest.test_case "sys.gtxns tracks an in-flight 2PC round" `Quick
            test_gtxns_inflight;
          Alcotest.test_case "trace streams are byte-deterministic per seed"
            `Quick test_trace_determinism;
          Alcotest.test_case "catalogs, rollup and rids over the wire" `Quick
            test_catalogs_over_wire;
          Alcotest.test_case "a console disconnect rolls back" `Quick
            test_console_disconnect_rolls_back;
          Alcotest.test_case "console drain" `Quick test_console_drain;
        ] );
    ]
