(* ivdb's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-check

   After one discarded warm-up round, a run repeats rounds of one workload
   until S wall seconds have passed, and always runs at least the first
   [tick_rounds] rounds. Each round
   sets up fresh engines, runs a closed loop of fibers under the seeded
   scheduler (one OS thread, loopback transport), checks the correctness
   gates and crashes and recovers the engines. Round r of seed N generates
   the same inputs and schedules them identically on every run, so
   simulated-tick metrics are taken from the first [tick_rounds] rounds and
   repeat exactly for a seed; wall-clock metrics pool every round.

   --trace 0 prints the end-to-end metrics. --trace 1 runs each round twice,
   untraced then traced, prints the per-layer metrics and the tracing
   overhead, and fails the run if the two disagree on any tick metric.
   The last line of standard output is one JSON object; the lines before it
   restate every metric with its unit and sample count. The exit code is
   non-zero when a correctness gate fails. *)

type workload = {
  name : string;
  tick_rounds : int;
  tick_budget : int;  (** simulated-tick deadline of a round's measured phase *)
  run :
    small:bool ->
    seed:int ->
    round:int ->
    traced:bool ->
    tick_budget:int ->
    wall_deadline:float ->
    Probe.round;
}

let local spec ~small = Local.run (if small then Local.small spec else spec)
let shard spec ~small = Shard.run (if small then Shard.small spec else spec)

let workloads =
  [
    { name = "escrow-hot"; tick_rounds = 6; tick_budget = 2_000_000; run = local Local.escrow_hot };
    { name = "shard-2pc"; tick_rounds = 20; tick_budget = 4_000_000; run = shard Shard.shard_2pc };
    { name = "read-spill"; tick_rounds = 8; tick_budget = 4_000_000; run = local Local.read_spill };
  ]

(* Wall budget of one round, and of a whole run: the run must report well
   inside 180 seconds whatever happens. *)
let round_wall_limit = 60.
let run_wall_limit = 150.

let cat f rounds = Array.concat (List.map f rounds)
let sum f rounds = List.fold_left (fun acc r -> acc + f r) 0 rounds
let sumf f rounds = List.fold_left (fun acc r -> acc +. f r) 0. rounds
let rec take n = function x :: xs when n > 0 -> x :: take (n - 1) xs | _ -> []

let failed_gates (r : Probe.round) = List.filter (fun (_, ok) -> not ok) r.gates

(* Failed transactions, plus every transaction of a round whose
   correctness gate failed. *)
let failed (r : Probe.round) = if failed_gates r = [] then r.failed else r.attempted

(* Rounds in order, each untraced and (with --trace 1) traced. *)
let run_rounds w ~seed ~seconds ~traced =
  let t0 = Unix.gettimeofday () in
  let hard = t0 +. run_wall_limit in
  (* a discarded warm-up round: the first round of a process runs slower
     while the collector sizes its heap *)
  ignore (w.run ~small:false ~seed ~round:(-1) ~traced:false ~tick_budget:w.tick_budget ~wall_deadline:hard);
  let rec go round acc =
    let now = Unix.gettimeofday () in
    if (round >= w.tick_rounds && now -. t0 >= seconds) || now >= hard then List.rev acc
    else begin
      let one traced =
        w.run ~small:false ~seed ~round ~traced ~tick_budget:w.tick_budget
          ~wall_deadline:(Float.min hard (Unix.gettimeofday () +. round_wall_limit))
      in
      (* every round starts from the same collector state *)
      Gc.full_major ();
      let plain = one false in
      let traced_round = if traced then Some (one true) else None in
      go (round + 1) ((plain, traced_round) :: acc)
    end
  in
  go 0 []

let top_heap_mb () = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

let pct xs q = Stats.or_zero (Stats.percentile xs q)

(* Wall-clock metrics pool every round of a run: latency percentiles over
   all of its samples, throughput as all commits over all measured time,
   recovery time as the mean round's, and set-up time as the median
   round's. The machine's speed switches between a few levels, up to twice
   apart, for seconds to minutes at a time, and a run sees a mix of them.
   Pooling the whole run averages over that mix; an estimator that picks
   some rounds (the fastest ones, or the median one) follows whichever level
   those rounds ran at. Entries are (name, unit, value, samples). *)
let end_to_end ~tick_rounds (rounds : Probe.round list) =
  let ticked = take tick_rounds rounds in
  let n = Array.length in
  let txn_us = cat (fun r -> r.Probe.txn_us) rounds in
  let read_us = cat (fun r -> r.Probe.read_us) rounds in
  let txn_ticks = cat (fun r -> r.Probe.txn_ticks) ticked
  and read_ticks = cat (fun r -> r.Probe.read_ticks) ticked in
  let per_round f = Array.of_list (List.map f rounds) in
  let commits = sum (fun r -> r.Probe.commits) rounds and tick_commits = sum (fun r -> r.Probe.commits) ticked in
  [
    ("txn_per_s", "txn/s", Stats.ratio (float_of_int commits) (sumf (fun r -> r.Probe.measured_s) rounds), commits);
    ("txn_us_p50", "us", pct txn_us 50., n txn_us);
    ("txn_us_p99", "us", pct txn_us 99., n txn_us);
    ( "txn_per_ktick",
      "txn/ktick",
      1000. *. Stats.ratio (float_of_int tick_commits) (float_of_int (sum (fun r -> r.Probe.ticks) ticked)),
      tick_commits );
    ("txn_ticks_p50", "ticks", pct txn_ticks 50., n txn_ticks);
    ("txn_ticks_p99", "ticks", pct txn_ticks 99., n txn_ticks);
    ("read_us_p50", "us", pct read_us 50., n read_us);
    ("read_us_p99", "us", pct read_us 99., n read_us);
    ("read_ticks_p99", "ticks", pct read_ticks 99., n read_ticks);
    ( "log_bytes_per_txn",
      "bytes",
      Stats.ratio (float_of_int (sum (fun r -> r.Probe.log_bytes) ticked)) (float_of_int tick_commits),
      tick_commits );
    ("setup_s", "s", Stats.median (per_round (fun r -> r.Probe.setup_s)), List.length rounds);
    ("recover_s", "s", Stats.mean (per_round (fun r -> r.Probe.recover_s)), List.length rounds);
    ("top_heap_mb", "MiB", top_heap_mb (), 1);
  ]

(* Per-layer metrics: the median over rounds of each round's value. Wall
   metrics (µs) pool every traced round; counts and ticks come from the
   first [tick_rounds] so they repeat exactly for a seed. *)
let per_layer ~tick_rounds pairs =
  let traced = List.filter_map snd pairs in
  let plain = List.map fst pairs in
  match traced with
  | [] -> []
  | first :: _ ->
      let overhead =
        100. *. ((sumf (fun r -> r.Probe.measured_s) traced /. sumf (fun r -> r.Probe.measured_s) plain) -. 1.)
      in
      List.mapi
        (fun i (name, unit, _) ->
          let rounds = if unit = "us" then traced else take tick_rounds traced in
          let values =
            Array.of_list
              (List.map
                 (fun r ->
                   let _, _, v = List.nth r.Probe.layers i in
                   v)
                 rounds)
          in
          (name, unit, Stats.median values, Array.length values))
        first.Probe.layers
      @ [ ("trace.overhead_pct", "%", overhead, List.length traced) ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, unit, v, samples) -> Printf.printf "%-32s %16.6f %-10s n=%d\n" name v unit samples)
    metrics;
  Printf.printf "fail_ratio %.6f (%d failed of %d attempted)\n"
    (Stats.ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v, _) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))

let write_dump ~workload ~seed lines =
  if Sys.file_exists "ivbench" && Sys.is_directory "ivbench" then begin
    let dir = Filename.concat "ivbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed) in
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines);
    Printf.printf "trace of the first traced round: %s (%d records)\n" path (List.length lines)
  end

let bench w ~seed ~seconds ~traced =
  let pairs = run_rounds w ~seed ~seconds ~traced in
  let rounds = List.concat_map (fun (a, b) -> a :: Option.to_list b) pairs in
  let tick_mismatch =
    List.exists
      (fun (a, b) ->
        match b with Some b -> Probe.tick_fingerprint a <> Probe.tick_fingerprint b | None -> false)
      pairs
  in
  Printf.printf "workload %s, seed %d, %d rounds (%d with tick metrics)%s\n" w.name seed (List.length pairs)
    (min w.tick_rounds (List.length pairs))
    (if traced then ", each run untraced then traced" else "");
  List.iteri
    (fun i ((r : Probe.round), _) ->
      Printf.printf "round %2d: %9.2f txn/s over %.3f s, %d ticks, set-up %.4f s, recovery %.4f s\n" i
        (Stats.ratio (float_of_int r.commits) r.measured_s)
        r.measured_s r.ticks r.setup_s r.recover_s)
    pairs;
  List.iteri
    (fun i (r : Probe.round) ->
      List.iter (fun (g, _) -> Printf.printf "GATE FAILED (run %d): %s\n" i g) (failed_gates r);
      List.iter (fun e -> Printf.printf "  failure (run %d): %s\n" i e) r.errors)
    rounds;
  if tick_mismatch then print_endline "GATE FAILED: traced and untraced rounds differ in tick metrics";
  let correct = (not tick_mismatch) && List.for_all (fun r -> failed_gates r = []) rounds in
  let metrics =
    if traced then per_layer ~tick_rounds:w.tick_rounds pairs
    else end_to_end ~tick_rounds:w.tick_rounds (List.map fst pairs)
  in
  (match List.filter_map snd pairs with
  | first :: _ -> write_dump ~workload:w.name ~seed first.Probe.dump
  | [] -> ());
  print_result ~correct ~attempted:(sum (fun r -> r.Probe.attempted) rounds) ~failed:(sum failed rounds) metrics;
  if not correct then exit 1

(* The determinism self-check, on shrunken rounds of every workload. *)
let self_check () =
  let ok = ref true in
  let check w what cond =
    Printf.printf "%-10s %-58s %s\n" w.name what (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  let counts (r : Probe.round) = List.filter (fun (_, unit, _) -> unit <> "us") r.layers in
  List.iter
    (fun w ->
      let run ~seed ~traced =
        w.run ~small:true ~seed ~round:0 ~traced ~tick_budget:w.tick_budget
          ~wall_deadline:(Unix.gettimeofday () +. round_wall_limit)
      in
      let a = run ~seed:7 ~traced:false and b = run ~seed:7 ~traced:false in
      let c = run ~seed:7 ~traced:true and d = run ~seed:7 ~traced:true in
      let e = run ~seed:8 ~traced:false in
      check w "gates hold, no transaction failed"
        (List.for_all (fun r -> failed_gates r = [] && r.Probe.failed = 0) [ a; b; c; d; e ]);
      check w "same seed: identical tick metrics" (Probe.tick_fingerprint a = Probe.tick_fingerprint b);
      check w "same seed: identical per-layer counts" (counts c = counts d && counts c <> []);
      check w "traced and untraced: identical tick metrics" (Probe.tick_fingerprint a = Probe.tick_fingerprint c);
      check w "second seed: different generated inputs" (a.Probe.inputs <> e.Probe.inputs))
    workloads;
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and self = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME escrow-hot | shard-2pc | read-spill");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs and the fiber schedule");
      ("--seconds", Arg.Set_float seconds, "S wall seconds to keep running rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--self-check", Arg.Set self, " determinism self-check on shrunken rounds");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --self-check" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self then self_check ()
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w when !trace = 0 || !trace = 1 -> bench w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
    | _ ->
        prerr_endline usage;
        exit 2
