(* The simulator's benchmark: one named workload in a fresh process.

     simbench --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0), it repeats passes over the workload's cells
   until S seconds have gone (three passes at least) and prints the
   end-to-end metrics: host medians over the passes and the simulated
   record, which every pass must reproduce exactly.  Traced (--trace
   1), it runs a traced pass, the layer probes and a server-recovery
   drill between two untraced passes, writes the spans as a Perfetto
   trace under simbench/traces/, and prints the per-layer metrics.

   Every cell ends with the audit and, where the oracle is on, the
   serializability check; the staged run is first checked against
   [Job.run] on a short cell.  The last line of standard output is one
   JSON object: correct, attempted and failed count cells, the
   self-check cell included. *)

open Oodb_core
open Simbench

let usage =
  "usage: simbench --workload NAME --seed N --seconds S --trace 0|1\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

let die msg =
  prerr_endline msg;
  exit 2

type args = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then die ("bad --seed " ^ v);
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      if !seconds = None then die ("bad --seconds " ^ v);
      go rest
    | "--trace" :: v :: rest ->
      trace :=
        (match v with
        | "0" -> Some false
        | "1" -> Some true
        | _ -> die ("bad --trace " ^ v));
      go rest
    | a :: _ -> die ("unknown argument " ^ a ^ "\n" ^ usage)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace -> (
    match Workloads.find w with
    | Some workload -> { workload; seed; seconds; trace }
    | None -> die ("unknown workload " ^ w ^ "\n" ^ usage))
  | _ -> die usage

(* --- failures ------------------------------------------------------------ *)

exception Bench_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_failed s)) fmt

(* Cells that ran to the end, checks included. *)
let cells_done = ref 0

let in_cell wname (job : Job.t) f =
  match f () with
  | v ->
    incr cells_done;
    v
  | exception (Bench_failed _ as e) -> raise e
  | exception e ->
    fail "cell %s/%s: %s" wname job.label (Printexc.to_string e)

(* --- passes -------------------------------------------------------------- *)

type pass = { params_s : float; cells : Cell.outcome list }

let pass_wall_s p = Summary.sum Cell.sim_wall_s p.cells
let pass_cpu_s p = Summary.sum (fun o -> o.Cell.sim_cpu_s) p.cells

(* Calibrated passes run the calibration kernel all through each cell
   (see Calib and Cell.calib). *)
let calib_of ~spans (w : Workloads.t) =
  {
    Cell.slice = w.slice;
    kernel =
      (fun () ->
        Spans.with_span spans "calib" (fun () ->
            Calib.run ~cpu_now:Cell.cpu_now));
  }

let kernel_wall_s p =
  Summary.mean (List.concat_map (fun o -> List.map fst o.Cell.calib) p.cells)

(* A pass's times in units of the kernel's, cell by cell: each cell's
   time over the mean of the kernel samples taken during it. *)
let pass_rel time kernel p =
  Summary.relative
    (List.map (fun o -> (time o, List.map kernel o.Cell.calib)) p.cells)

let pass_wall_rel = pass_rel Cell.sim_wall_s fst
let pass_cpu_rel = pass_rel (fun o -> o.Cell.sim_cpu_s) snd

let run_pass ~spans ?inspect ?calib (a : args) =
  Gc.full_major ();
  let jobs, params_s =
    Cell.timed spans "params" (fun () -> a.workload.jobs ~seed:a.seed)
  in
  let cells =
    List.mapi
      (fun i job ->
        in_cell a.workload.name job (fun () ->
            Cell.run ~spans ~cell:i ?inspect ?calib job))
      jobs
  in
  { params_s; cells }

let digests p = List.map (fun o -> (o.Cell.label, Cell.digest o)) p.cells

let same_digests ~what a b =
  List.iter2
    (fun (label, d) (_, d') ->
      if d <> d' then
        fail "cell %s: %s digest differs:\n  %s\n  %s" label what d d')
    (digests a) (digests b)

(* Set-up alone, [reps] times from a collected heap: params, then each
   cell's set-up, without simulating.  Mean seconds per set-up. *)
let setup_only (a : args) ~reps =
  let spans = Spans.create ~enabled:false () in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    List.iter
      (fun job -> ignore (Sys.opaque_identity (Cell.setup ~spans job)))
      (a.workload.jobs ~seed:a.seed)
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* The staged run, calibrated, must reproduce [Job.run] exactly; a
   short version of the workload's first cell keeps this cheap, and
   one-second slices make sure its windows are split. *)
let self_check (a : args) =
  let job = List.hd (a.workload.jobs ~seed:a.seed) in
  let job =
    { job with Job.warmup = Float.min job.warmup 2.0;
      measure = Float.min job.measure 5.0 }
  in
  let spans = Spans.create ~enabled:false () in
  let mine, reference =
    in_cell a.workload.name job (fun () ->
        ( Cell.run ~spans ~cell:0
            ~calib:{ (calib_of ~spans a.workload) with slice = 1.0 }
            job,
          Job.run job ))
  in
  let m = Cell.render (Cell.record_fields mine.Cell.record)
  and r = Cell.render Cell.(record_fields (record_of_result reference)) in
  if m <> r then
    fail "self-check %s/%s: staged run differs from Job.run:\n  %s\n  %s"
      a.workload.name job.label m r;
  Printf.printf "self-check %s/%s (%.0f+%.0f s): staged run = Job.run\n%!"
    a.workload.name job.label job.warmup job.measure

(* --- metrics ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let resp_hists cells = List.map (fun o -> o.Cell.hists.Metrics.h_response) cells

let model_metrics cells =
  let rs = List.map (fun o -> o.Cell.record) cells in
  let commits = float_of_int (Summary.sumi (fun r -> r.Cell.commits) rs) in
  let aborts = float_of_int (Summary.sumi (fun r -> r.Cell.aborts) rs) in
  let tps = Summary.sum (fun r -> r.Cell.throughput) rs in
  let hs = resp_hists cells in
  [
    m "sim_tps" "1/s" (tps /. float_of_int (List.length cells));
    m "sim_resp_p50_ms" "ms" (1000.0 *. Summary.merged_quantile hs 0.50);
    m "sim_resp_p99_ms" "ms" (1000.0 *. Summary.merged_quantile hs 0.99);
    m "commit_share" "ratio" (Summary.ratio commits (commits +. aborts));
  ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let end_to_end (a : args) =
  let deadline = Unix.gettimeofday () +. a.seconds in
  let spans = Spans.create ~enabled:false () in
  let calib = calib_of ~spans a.workload in
  let first = run_pass ~spans ~calib a in
  (* Read before the pass count, which depends on the clock, can change
     how the heap grows: the self-check and one pass are the same
     allocations on every run at this seed. *)
  let peak_heap_mb = peak_heap_mb () in
  List.iter
    (fun (label, d) ->
      Printf.printf "digest %s %s %s\n" a.workload.name label d)
    (digests first);
  let rec more acc =
    if List.length acc >= 3 && Unix.gettimeofday () >= deadline then
      List.rev acc
    else
      let p = run_pass ~spans ~calib a in
      same_digests ~what:"repeat-pass" first p;
      more (p :: acc)
  in
  let passes = more [ first ] in
  (* Set-up samples, each averaging the workload's [setup_reps] set-ups
     (sub-millisecond set-ups are otherwise timer noise) and each
     between two runs of the calibration kernel: at least 7, up to 31
     while they take under 2 s in all.  A sample is its seconds over
     the mean of the kernel's two, times [Calib.reference_s]: set-up
     seconds at the reference speed. *)
  let reps = a.workload.setup_reps in
  let kernel () = fst (Calib.run ~cpu_now:Cell.cpu_now) in
  let t_setups = Unix.gettimeofday () in
  let rec setups raw cal k0 =
    let n = List.length raw in
    if n >= 31 || (n >= 7 && Unix.gettimeofday () -. t_setups > 2.0) then
      (raw, cal)
    else
      let s = setup_only a ~reps in
      let k1 = kernel () in
      setups (s :: raw)
        ((s /. ((k0 +. k1) /. 2.0) *. Calib.reference_s) :: cal)
        k1
  in
  let raw_setups, setups = setups [] [] (kernel ()) in
  let commits = Summary.sumi (fun o -> o.Cell.record.commits) first.cells in
  let floats fmt xs = String.concat " " (List.map (Printf.sprintf fmt) xs) in
  Printf.printf
    "passes %d: wall_s %s; cpu_s %s; kernel_ms %s; wall_rel %s\n\
     set-up: %d samples of %d set-ups each, median %.6g s measured, %.6g s \
     at the reference speed\n\
     response samples: n=%d commits\n"
    (List.length passes)
    (floats "%.3f" (List.map pass_wall_s passes))
    (floats "%.3f" (List.map pass_cpu_s passes))
    (floats "%.2f" (List.map (fun p -> 1000.0 *. kernel_wall_s p) passes))
    (floats "%.1f" (List.map pass_wall_rel passes))
    (List.length setups) reps
    (Summary.median raw_setups)
    (Summary.median setups) commits;
  let metrics =
    [
      m "wall_rel" "ratio" (Summary.median (List.map pass_wall_rel passes));
      m "cpu_rel" "ratio" (Summary.median (List.map pass_cpu_rel passes));
      m "setup_s" "s" (Summary.median setups);
      m "peak_heap_mb" "MB" peak_heap_mb;
    ]
    @ model_metrics first.cells
  in
  metrics

(* Every span name the traced run records, for the self-time metrics. *)
let span_names =
  [ "run"; "params"; "cell"; "calib"; "Model.create";
    "Netlayer.install_edge_exchange"; "Audit.install"; "Client.start";
    "Crash.install";
    "Engine.run_until.warmup"; "reset"; "Engine.run_until.measure";
    "Audit.check"; "Oracle.Checker.check"; "queries"; "inspect" ]
  @ List.map (fun (p, _, _) -> "probe." ^ p) Probes.all
  @ [ "probe.srv_drill" ]

(* Per-layer metrics from one traced pass and the probes.  Metrics of a
   layer the workload does not exercise read 0, so every workload
   prints the same names. *)
let per_layer (a : args) =
  (* The traced pass sits between two untraced ones, so a process that
     speeds up as its heap settles does not read as negative overhead.
     All three are calibrated; the traced pass records the kernel's runs
     as "calib" spans, so the stages' self times leave them out. *)
  let untraced () =
    let spans = Spans.create ~enabled:false () in
    run_pass ~spans ~calib:(calib_of ~spans a.workload) a
  in
  let before = untraced () in
  let spans = Spans.create ~enabled:true () in
  (* Per cell, on the final state: mean host ms of one full audit sweep
     (what each injected fault runs), of one audit scoped to a single
     client's copies (what each commit and abort runs; every other
     invariant is still checked over the whole population), and the
     population's resident bytes per client. *)
  let sweep_ms = ref [] and txn_check_ms = ref [] in
  let bytes_per_client = ref [] in
  let inspect (sys : Model.sys) =
    Spans.with_span spans "inspect" (fun () ->
        let k = 5 and n = sys.clients.n in
        let mean_ms f =
          let t0 = Unix.gettimeofday () in
          for i = 0 to k - 1 do
            f i
          done;
          1000.0 *. (Unix.gettimeofday () -. t0) /. float_of_int k
        in
        sweep_ms :=
          mean_ms (fun _ -> Audit.check sys ~context:"simbench-sweep")
          :: !sweep_ms;
        txn_check_ms :=
          mean_ms (fun i ->
              Audit.check sys ~context:"simbench-txn" ~coverage_of:(i * n / k))
          :: !txn_check_ms;
        Gc.full_major ();
        bytes_per_client :=
          (float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
          /. float_of_int sys.clients.n)
          :: !bytes_per_client;
        ignore (Sys.opaque_identity sys))
  in
  let traced, probes, drill =
    Spans.with_span spans "run" (fun () ->
        let traced =
          run_pass ~spans ~inspect ~calib:(calib_of ~spans a.workload) a
        in
        let cells = traced.cells in
        let job = List.hd (a.workload.jobs ~seed:a.seed) in
        let ctx =
          {
            Probes.job;
            seed = a.seed;
            queue_depth =
              Summary.sumi (fun o -> o.Cell.pending) cells / List.length cells;
            resp_mean =
              Telemetry.Histogram.mean
                (List.hd cells).Cell.hists.Metrics.h_response;
            stream = a.workload.stream;
          }
        in
        let probes =
          List.map
            (fun (name, _, probe) ->
              ( name,
                Spans.with_span spans ("probe." ^ name) (fun () -> probe ctx) ))
            Probes.all
        in
        let drill =
          Spans.with_span spans "probe.srv_drill" (fun () ->
              Probes.srv_drill ctx)
        in
        (traced, probes, drill))
  in
  let after = untraced () in
  same_digests ~what:"traced-pass" before traced;
  same_digests ~what:"repeat-pass" before after;
  let untraced_wall = (pass_wall_s before +. pass_wall_s after) /. 2.0 in
  (* The tracing overhead in kernel units, so a host that drifts between
     the passes does not read as overhead, then in seconds at the traced
     pass's speed. *)
  let overhead_s =
    (pass_wall_rel traced
    -. ((pass_wall_rel before +. pass_wall_rel after) /. 2.0))
    *. kernel_wall_s traced
  in
  let cells = traced.cells in
  let sweep_ms = List.rev !sweep_ms
  and txn_check_ms = List.rev !txn_check_ms in
  (match Spans.check spans with
  | Ok () -> ()
  | Error msg -> fail "trace: %s" msg);
  let all = Spans.spans spans in
  let root = List.find (fun s -> s.Spans.name = "run") all in
  (* Reported, not checked: self times add up to the root by
     construction. *)
  let selfs = Spans.self_by_name all in
  let self_sum = Summary.sum snd selfs in
  List.iter
    (fun (n, _) ->
      if not (List.mem n span_names) then fail "unlisted span name %s" n)
    selfs;
  let dir = Filename.concat "simbench" "traces" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d.json" a.workload.name a.seed)
  in
  Spans.write_perfetto spans ~process_name:("simbench " ^ a.workload.name)
    ~path;
  Printf.printf "trace: %d spans written to %s\n" (List.length all) path;
  let sumi f = float_of_int (Summary.sumi f cells) in
  let commits = sumi (fun o -> o.Cell.record.commits) in
  let events = sumi (fun o -> o.Cell.events) in
  let sim_wall = pass_wall_s traced in
  let count name f = m name "count" (sumi f) in
  let per_commit name unit_ f = m name unit_ (Summary.ratio (sumi f) commits) in
  let util name f =
    m name "ratio" (Summary.sum f cells /. float_of_int (List.length cells))
  in
  let stage name f = m name "s" (Summary.sum f cells) in
  let p99_ms name f =
    m name "ms"
      (1000.0
      *. Summary.merged_quantile (List.map (fun o -> f o.Cell.hists) cells) 0.99
      )
  in
  let share_of_wall name s = m name "ratio" (Summary.ratio s sim_wall) in
  let run_s, minor, promoted, majors =
    let d1, mi1, p1, g1 = Spans.total all "Engine.run_until.warmup"
    and d2, mi2, p2, g2 = Spans.total all "Engine.run_until.measure" in
    (d1 +. d2, mi1 +. mi2, p1 +. p2, g1 + g2)
  in
  let probe name = List.assoc name probes in
  let sweeps =
    List.map (fun o -> float_of_int (o.Cell.faults_whole_run + 1)) cells
  and txn_checks = List.map (fun o -> float_of_int o.Cell.txns_whole_run) cells
  in
  let audit_s =
    Summary.sum Fun.id
      (List.map2 (fun n ms -> n *. ms /. 1000.0) sweeps sweep_ms)
    +. Summary.sum Fun.id
         (List.map2 (fun n ms -> n *. ms /. 1000.0) txn_checks txn_check_ms)
  in
  let by_algo =
    List.concat_map
      (fun algo ->
        let name = Algo.to_string algo in
        let o = List.find_opt (fun o -> o.Cell.algo = algo) cells in
        let v f = match o with Some o -> f o | None -> 0.0 in
        [
          m ("cell_s." ^ name) "s" (v Cell.sim_wall_s);
          m ("cell_events_per_s." ^ name) "1/s"
            (v (fun o ->
                 float_of_int o.Cell.events /. (o.warmup_s +. o.measure_s)));
        ])
      Algo.all
  in
  let self_metrics =
    List.map
      (fun n ->
        m ("self_s." ^ n) "s"
          (Option.value (List.assoc_opt n selfs) ~default:0.0))
      span_names
  in
  [
    m "simcore.events" "count" events;
    m "simcore.events_per_s" "1/s" (Summary.ratio events run_s);
    m "simcore.minor_words_per_event" "words" (Summary.ratio minor events);
    m "simcore.promoted_words_per_event" "words"
      (Summary.ratio promoted events);
    m "simcore.major_gcs" "count" (float_of_int majors);
  ]
  @ List.map (fun (name, metric, _) -> m metric "ns" (probe name)) Probes.all
  @ by_algo
  @ [
      m "stage.params_s" "s" traced.params_s;
      stage "stage.model_create_s" (fun o -> o.Cell.model_create_s);
      stage "stage.client_start_s" (fun o -> o.Cell.client_start_s);
      stage "stage.warmup_s" (fun o -> o.Cell.warmup_s);
      stage "stage.measure_s" (fun o -> o.Cell.measure_s);
      m "audit.full_sweeps" "count" (Summary.sum Fun.id sweeps);
      m "audit.full_sweep_ms" "ms" (Summary.median sweep_ms);
      m "audit.txn_checks" "count" (Summary.sum Fun.id txn_checks);
      m "audit.txn_check_ms" "ms" (Summary.median txn_check_ms);
      share_of_wall "audit.est_share" audit_s;
      share_of_wall "equeue.est_share" (events *. probe "equeue" /. 1e9);
      share_of_wall "lock_table.est_share"
        (sumi (fun o -> o.Cell.page_write_grants + o.Cell.object_write_grants)
        *. probe "lock_table" /. 1e9);
      count "oracle.ops" (fun o -> o.Cell.record.oracle_ops);
      count "oracle.commits" (fun o -> o.Cell.oracle_commits);
      stage "oracle.check_s" (fun o -> o.Cell.oracle_check_s);
      count "locking.lock_waits" (fun o -> o.Cell.record.lock_waits);
      count "locking.deadlocks" (fun o -> o.Cell.record.deadlocks);
      count "locking.page_write_grants" (fun o -> o.Cell.page_write_grants);
      count "locking.object_write_grants" (fun o -> o.Cell.object_write_grants);
      p99_ms "locking.lock_wait_p99_ms" (fun h -> h.Metrics.h_lock_wait);
      per_commit "netlayer.msgs_per_commit" "count" (fun o ->
          o.Cell.record.messages);
      m "netlayer.kb_per_commit" "KB"
        (Summary.ratio (sumi (fun o -> o.Cell.bytes) /. 1024.0) commits);
      count "netlayer.retries" (fun o -> o.Cell.retries);
      count "netlayer.cb_forwards" (fun o -> o.Cell.cb_forwards);
      count "netlayer.edge_exchanges" (fun o -> o.Cell.edge_exchanges);
      count "cb.callback_blocks" (fun o -> o.Cell.callback_blocks);
      p99_ms "cb.round_p99_ms" (fun h -> h.Metrics.h_cb_round);
      count "srv.deescalations" (fun o -> o.Cell.deescalations);
      count "srv.merges" (fun o -> o.Cell.merges);
      util "resources.server_cpu_util" (fun o -> o.Cell.server_cpu_util);
      util "resources.client_cpu_util" (fun o -> o.Cell.client_cpu_util);
      util "resources.disk_util" (fun o -> o.Cell.disk_util);
      util "resources.net_util" (fun o -> o.Cell.net_util);
      per_commit "resources.disk_ios_per_commit" "count" (fun o ->
          o.Cell.record.disk_ios);
      per_commit "storage.read_reqs_per_commit" "count" (fun o ->
          o.Cell.read_reqs);
      count "faults.injected" (fun o -> o.Cell.record.faults_injected);
      count "crash.client_crashes" (fun o -> o.Cell.client_crashes);
      m "crash.srv_crashes" "count" (float_of_int drill.Probes.crashes);
      m "crash.srv_recoveries" "count" (float_of_int drill.recoveries);
      m "crash.srv_recovery_ms" "ms" drill.recovery_ms;
      m "model.bytes_per_client" "B" (Summary.median !bytes_per_client);
      m "sim.commits" "count" commits;
      m "trace.spans" "count" (float_of_int (List.length all));
      m "trace.root_s" "s" (Spans.duration root);
      m "trace.self_sum_s" "s" self_sum;
      m "trace.untraced_wall_s" "s" untraced_wall;
      m "trace.traced_wall_s" "s" sim_wall;
      m "trace.overhead_s" "s" overhead_s;
    ]
  @ self_metrics

(* --- output -------------------------------------------------------------- *)

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun x ->
               ( x.name,
                 Json.Obj
                   [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]
               ))
             metrics) );
    ]

let () =
  let a = parse_args () in
  match
    self_check a;
    if a.trace then per_layer a else end_to_end a
  with
  | metrics ->
    List.iter
      (fun x -> Printf.printf "%-40s %.6g %s\n" x.name x.value x.unit_)
      metrics;
    print_endline
      (Json.to_string
         (result_json ~correct:true ~attempted:!cells_done ~failed:0 metrics))
  | exception e ->
    let msg =
      match e with
      | Bench_failed msg | Probes.Failed msg -> msg
      | e -> Printexc.to_string e
    in
    prerr_endline ("simbench: FAILED: " ^ msg);
    print_endline
      (Json.to_string
         (result_json ~correct:false
            ~attempted:(!cells_done + 1)
            ~failed:1 []));
    exit 1
