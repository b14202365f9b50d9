(* Stage-by-stage run of one simulation cell.

   It makes the same calls [Runner.run] makes, in the same order, but
   times each stage on its own and wraps each in a span, so set-up,
   warm-up, measurement and the end-of-run checks can be told apart.
   Every run's self-check pins it to [Job.run]: on the same job both
   must yield the same simulated record. *)

open Oodb_core
open Simcore

(* The simulated record: the part a change that only speeds up the
   simulator must leave byte-identical.  It is built from a cell's run
   or from [Runner.result], so the self-check compares the staged run
   with [Job.run] through one list of fields. *)
type record = {
  commits : int;
  aborts : int;
  deadlocks : int;
  throughput : float;
  resp_p50 : float;
  resp_p99 : float;
  messages : int;
  disk_ios : int;
  lock_waits : int;
  faults_injected : int;  (** measurement window *)
  oracle_ops : int;
}

let record_of_result (r : Runner.result) =
  {
    commits = r.commits;
    aborts = r.aborts;
    deadlocks = r.deadlocks;
    throughput = r.throughput;
    resp_p50 = r.resp_p50;
    resp_p99 = r.resp_p99;
    messages = r.messages;
    disk_ios = r.disk_ios;
    lock_waits = r.lock_waits;
    faults_injected = r.faults_injected;
    oracle_ops = r.oracle_ops;
  }

type outcome = {
  label : string;
  algo : Algo.t;
  (* host seconds per stage *)
  model_create_s : float;
  client_start_s : float;
  warmup_s : float;
  measure_s : float;
  finish_s : float;  (** reset, end-of-run audit, oracle check, queries *)
  oracle_check_s : float;
  sim_cpu_s : float;  (** process CPU over warm-up, measurement and finish *)
  record : record;
  (* the rest of the simulated outcome *)
  events : int;
  pending : int;  (** live events queued at the end *)
  bytes : int;
  read_reqs : int;
  server_cpu_util : float;
  client_cpu_util : float;
  disk_util : float;
  net_util : float;
  callback_blocks : int;
  merges : int;
  deescalations : int;
  page_write_grants : int;
  object_write_grants : int;
  retries : int;
  cb_forwards : int;
  edge_exchanges : int;
  faults_whole_run : int;  (** warm-up too: each one ran a full audit *)
  txns_whole_run : int;
      (** commits and aborts, warm-up too: each one ran a scoped audit *)
  client_crashes : int;
  oracle_commits : int;
  hists : Metrics.hist_snapshot;
  calib : (float * float) list;
      (** the calibration kernel's (wall, CPU) seconds, run after set-up,
          between slices and after the queries; empty without [calib] *)
}

let sim_wall_s o = o.warmup_s +. o.measure_s +. o.finish_s

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run [f] under a span and return its result with its wall time. *)
let timed spans name f =
  Spans.with_span spans name (fun () ->
      let t0 = Unix.gettimeofday () in
      let v = f () in
      (v, Unix.gettimeofday () -. t0))

let reset_resource_stats (sys : Model.sys) =
  Array.iter
    (fun (sv : Model.server) ->
      Resources.Cpu.reset_stats sv.scpu;
      Resources.Disk_array.reset_stats sv.sdisks)
    sys.servers;
  Array.iter Resources.Cpu.reset_stats sys.clients.ccpu;
  Resources.Network.reset_stats sys.net

let total_deadlocks (sys : Model.sys) =
  Array.fold_left
    (fun acc (sv : Model.server) -> acc + Locking.Waits_for.deadlocks sv.wfg)
    0 sys.servers

let mean_over servers f =
  Array.fold_left (fun acc sv -> acc +. f sv) 0.0 servers
  /. float_of_int (Array.length servers)

(* Set-up as [Runner.run] does it: the model, the installs and the
   client start.  Returns the system with the model-create and
   client-start times; the installs are timed by their spans alone. *)
let setup ~spans (job : Job.t) =
  let sys, model_create_s =
    timed spans "Model.create" (fun () ->
        Model.create ~cfg:job.cfg ~algo:job.algo ~params:job.params
          ~seed:(Job.seed job))
  in
  Spans.with_span spans "Netlayer.install_edge_exchange" (fun () ->
      Netlayer.install_edge_exchange sys);
  Spans.with_span spans "Audit.install" (fun () -> Audit.install sys);
  let (), client_start_s =
    timed spans "Client.start" (fun () -> Client.start sys)
  in
  Spans.with_span spans "Crash.install" (fun () -> Crash.install sys);
  (sys, model_create_s, client_start_s)

(* A calibrated run splits each [Engine.run_until] window into slices
   of [slice] simulated seconds and runs [kernel] (which returns its wall
   and CPU seconds) between them, so the kernel samples the host's speed
   all through the cell.  Running up to a time in steps is the same
   simulation as running up to it at once; the self-check holds a
   calibrated run to [Job.run].  Stage times leave the kernel out. *)
type calib = { slice : float; kernel : unit -> float * float }

(* [inspect] runs on the final state after the queries (the traced run
   measures the population's footprint and the audit sweep there). *)
let run ~spans ~cell ?(inspect = fun (_ : Model.sys) -> ()) ?calib
    (job : Job.t) =
  Spans.with_span spans ~cell "cell" @@ fun () ->
  let max_events = job.max_events in
  let sys, model_create_s, client_start_s = setup ~spans job in
  let samples = ref [] and kernel_wall = ref 0.0 and kernel_cpu = ref 0.0 in
  let sample () =
    Option.iter
      (fun c ->
        let ((w, cpu) as k) = c.kernel () in
        samples := k :: !samples;
        kernel_wall := !kernel_wall +. w;
        kernel_cpu := !kernel_cpu +. cpu)
      calib
  in
  (* [timed], less the kernel's runs inside [f]. *)
  let timed_sim name f =
    let k0 = !kernel_wall in
    let v, s = timed spans name f in
    (v, s -. (!kernel_wall -. k0))
  in
  let run_window from until =
    match calib with
    | None -> Engine.run_until ?max_events sys.engine until
    | Some c ->
      let rec go k =
        let t = Float.min until (from +. (float_of_int k *. c.slice)) in
        Engine.run_until ?max_events sys.engine t;
        if t < until then begin
          sample ();
          go (k + 1)
        end
      in
      go 1
  in
  sample ();
  let warmup = job.warmup and stop = job.warmup +. job.measure in
  let cpu0 = cpu_now () and kernel_cpu0 = !kernel_cpu in
  let (), warmup_s =
    timed_sim "Engine.run_until.warmup" (fun () -> run_window 0.0 warmup)
  in
  let t_finish = Unix.gettimeofday () in
  let faults_in_warmup, txns_in_warmup, deadlocks_at_warmup =
    Spans.with_span spans "reset" (fun () ->
        let txns = Metrics.commits sys.metrics + Metrics.aborts sys.metrics in
        Metrics.reset sys.metrics ~now:warmup;
        reset_resource_stats sys;
        let f = Faults.injected sys.faults in
        Faults.reset_counters sys.faults;
        (f, txns, total_deadlocks sys))
  in
  let finish_reset_s = Unix.gettimeofday () -. t_finish in
  let (), measure_s =
    timed_sim "Engine.run_until.measure" (fun () -> run_window warmup stop)
  in
  let t_finish = Unix.gettimeofday () in
  sys.live <- false;
  Spans.with_span spans "Audit.check" (fun () ->
      Audit.check sys ~context:"end-of-run");
  let (), oracle_check_s =
    timed spans "Oracle.Checker.check" (fun () ->
        Option.iter Oracle.Checker.check sys.oracle)
  in
  let o =
    Spans.with_span spans "queries" @@ fun () ->
    let m = sys.metrics in
    let servers = sys.servers in
    {
      label = job.label;
      algo = job.algo;
      model_create_s;
      client_start_s;
      warmup_s;
      measure_s;
      finish_s = 0.0;
      oracle_check_s;
      sim_cpu_s = 0.0;
      record =
        {
          commits = Metrics.commits m;
          aborts = Metrics.aborts m;
          deadlocks = total_deadlocks sys - deadlocks_at_warmup;
          throughput = Metrics.throughput m ~now:stop;
          resp_p50 = Metrics.response_quantile m 0.50;
          resp_p99 = Metrics.response_quantile m 0.99;
          messages = Metrics.messages m;
          disk_ios =
            Array.fold_left
              (fun acc (sv : Model.server) ->
                acc + Resources.Disk_array.io_count sv.sdisks)
              0 servers;
          lock_waits = Metrics.lock_waits m;
          faults_injected = Faults.injected sys.faults;
          oracle_ops =
            (match sys.oracle with
            | Some h -> Oracle.History.op_count h
            | None -> 0);
        };
      events = Engine.events_processed sys.engine;
      pending = Engine.pending sys.engine;
      bytes = Metrics.bytes m;
      read_reqs = Metrics.messages_of m Metrics.M_read_req;
      server_cpu_util =
        mean_over servers (fun sv -> Resources.Cpu.utilization sv.Model.scpu);
      client_cpu_util =
        mean_over sys.clients.ccpu Resources.Cpu.utilization;
      disk_util =
        mean_over servers (fun sv ->
            Resources.Disk_array.utilization sv.Model.sdisks);
      net_util = Resources.Network.utilization sys.net;
      callback_blocks = Metrics.callback_blocks m;
      merges = Metrics.merges m;
      deescalations = Metrics.deescalations m;
      page_write_grants = Metrics.page_write_grants m;
      object_write_grants = Metrics.object_write_grants m;
      retries = Metrics.retries m;
      cb_forwards = Metrics.messages_of m Metrics.M_cb_forward;
      edge_exchanges = Metrics.messages_of m Metrics.M_edge_exchange;
      faults_whole_run = faults_in_warmup + Faults.injected sys.faults;
      txns_whole_run = txns_in_warmup + Metrics.commits m + Metrics.aborts m;
      client_crashes = Faults.crashes sys.faults;
      oracle_commits =
        (match sys.oracle with
        | Some h -> Oracle.History.committed_count h
        | None -> 0);
      hists = Metrics.snapshot_hists m;
      calib = [];
    }
  in
  let finish_s = finish_reset_s +. (Unix.gettimeofday () -. t_finish) in
  let sim_cpu_s = cpu_now () -. cpu0 -. (!kernel_cpu -. kernel_cpu0) in
  sample ();
  inspect sys;
  { o with finish_s; sim_cpu_s; calib = List.rev !samples }

(* Fields as (name, exact text), floats in full. *)
let record_fields r =
  let g x = Printf.sprintf "%.17g" x in
  [
    ("commits", string_of_int r.commits);
    ("aborts", string_of_int r.aborts);
    ("deadlocks", string_of_int r.deadlocks);
    ("tps", g r.throughput);
    ("p50_ms", g (1000.0 *. r.resp_p50));
    ("p99_ms", g (1000.0 *. r.resp_p99));
    ("msgs", string_of_int r.messages);
    ("disk_ios", string_of_int r.disk_ios);
    ("lock_waits", string_of_int r.lock_waits);
    ("faults", string_of_int r.faults_injected);
    ("oracle_ops", string_of_int r.oracle_ops);
  ]

let render fields =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

let digest o =
  render (("events", string_of_int o.events) :: record_fields o.record)
