(* Layer probes for the traced run.

   Each probe drives one layer's public API with a stream shaped by the
   workload (page ids and operations from its reference strings, its
   client count, its event-queue depth and measured event delays, its
   response times), times a fixed number of operations and returns host
   ns per operation.  It checks what the operations returned, so a
   probe can never time a no-op.  A failed check raises [Failed]. *)

open Oodb_core
open Simcore

exception Failed of string

type ctx = {
  job : Job.t;  (** the workload's first cell *)
  seed : int;
  queue_depth : int;  (** live events the workload's cells left queued *)
  resp_mean : float;  (** mean simulated response time, seconds *)
  stream : Workloads.stream;  (** the workload's measured event stream *)
}

let check probe ok what = if not ok then raise (Failed (probe ^ ": " ^ what))

let timed_ns f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. 1e9)

let rng ctx key = Rng.create ~seed:(Rng.key_seed ~seed:ctx.seed ~key)

(* Reference strings as the workload's clients would draw them;
   transaction [i] belongs to client [i * stride mod clients], so the
   stream spans the population. *)
let txns ctx ~n =
  let r = rng ctx "probe.txns" in
  let clients = ctx.job.Job.cfg.Config.num_clients in
  let stride = max 1 (clients / n) in
  Array.init n (fun i ->
      Workload.Refstring.generate ~rng:r ~params:ctx.job.Job.params
        ~client:(i * stride mod clients)
        ~objects_per_page:ctx.job.Job.cfg.Config.objects_per_page)

let page_lists ctx ~n = Array.map Workload.Refstring.pages (txns ctx ~n)

(* A heap-push delay from the workload's measured quantiles: one of the
   quantile intervals uniformly, then a point inside it, geometrically,
   since the quantiles span up to eleven decades. *)
let draw_delay r (s : Workloads.stream) =
  let q = s.delay_quantiles in
  let i = Rng.int r (Array.length q - 1) in
  q.(i) *. ((q.(i + 1) /. q.(i)) ** Rng.float r 1.0)

let equeue ctx =
  let name = "equeue" and n = 400_000 in
  let r = rng ctx "probe.equeue" in
  let q = Equeue.create () in
  let fired = ref 0 in
  let act () = incr fired in
  let depth = max 16 ctx.queue_depth in
  for _ = 1 to depth do
    ignore (Equeue.push_at q ~time:(draw_delay r ctx.stream) act : int)
  done;
  let delays =
    Array.init n (fun _ ->
        if Rng.bool r ~p:ctx.stream.zero_delay_share then 0.0
        else draw_delay r ctx.stream)
  in
  let last = ref 0.0 and ordered = ref true in
  let (), ns =
    timed_ns (fun () ->
        for i = 0 to n - 1 do
          (Equeue.pop_min q) ();
          let now = Equeue.clock q in
          if now < !last then ordered := false;
          last := now;
          let d = delays.(i) in
          ignore
            (if d = 0.0 then Equeue.push_now q act
             else Equeue.push_at q ~time:(now +. d) act
              : int)
        done)
  in
  check name (!fired = n) "not every popped event ran";
  check name !ordered "events popped out of time order";
  check name (Equeue.size q = depth) "queue depth drifted";
  ns /. float_of_int n

let proc ctx =
  let name = "proc" in
  let k = max 2 (min ctx.job.Job.cfg.Config.num_clients 64) in
  let m = 300_000 / k in
  let engine = Engine.create () in
  let switches = ref 0 in
  for _ = 1 to k do
    Proc.spawn engine (fun () ->
        for _ = 1 to m do
          Proc.yield engine;
          incr switches
        done)
  done;
  let (), ns = timed_ns (fun () -> Engine.run engine) in
  check name (!switches = k * m) "a fiber did not finish its yields";
  check name (Engine.now engine = 0.0) "yield advanced the clock";
  ns /. float_of_int (k * m)

let lock_table ctx =
  let name = "lock_table" in
  let pages = page_lists ctx ~n:4000 in
  let lt =
    Locking.Lock_table.create (Engine.create ())
      ~waits_for:(Locking.Waits_for.create ()) ~lock_name:"probe"
  in
  let grants = ref 0 and observed = ref true in
  let (), ns =
    timed_ns (fun () ->
        for round = 0 to 9 do
          Array.iteri
            (fun i ps ->
              let txn = (round * Array.length pages) + i in
              List.iter
                (fun p ->
                  match
                    Locking.Lock_table.acquire lt p ~txn
                      ~kind:Locking.Lock_types.Lock
                  with
                  | Locking.Lock_types.Granted -> incr grants
                  | Aborted -> observed := false)
                ps;
              if Locking.Lock_table.lock_count lt <> List.length ps then
                observed := false;
              Locking.Lock_table.release_all lt ~txn)
            pages
        done)
  in
  check name !observed "a grant was not visible in the lock table";
  check name (Locking.Lock_table.lock_count lt = 0) "locks survived release";
  (* One more grant, checked by holder. *)
  let p = List.hd pages.(0) in
  ignore (Locking.Lock_table.acquire lt p ~txn:(-1) ~kind:Lock : _);
  check name (Locking.Lock_table.held_by lt p ~txn:(-1)) "holder not recorded";
  ns /. float_of_int !grants

let copy_table ctx =
  let name = "copy_table" in
  let clients = ctx.job.Job.cfg.Config.num_clients in
  let n = min clients 2000 in
  let pages = page_lists ctx ~n in
  let ct = Locking.Copy_table.create ~clients in
  let expected = Hashtbl.create 1024 in
  let stride = max 1 (clients / n) in
  Array.iteri
    (fun i ps ->
      let client = i * stride mod clients in
      List.iter
        (fun p ->
          Locking.Copy_table.register ct p ~client;
          Hashtbl.replace expected p
            (client :: Option.value (Hashtbl.find_opt expected p) ~default:[]))
        ps)
    pages;
  let queried = Array.of_seq (Hashtbl.to_seq_keys expected) in
  Array.sort compare queried;
  let rounds = max 1 (400_000 / Array.length queried) in
  let total = ref 0 in
  let (), ns =
    timed_ns (fun () ->
        for _ = 1 to rounds do
          Array.iter
            (fun p ->
              total := !total + List.length (Locking.Copy_table.holders ct p))
            queried
        done)
  in
  let ops = rounds * Array.length queried in
  let expected_total = ref 0 in
  Array.iter
    (fun p ->
      let want = List.sort_uniq compare (Hashtbl.find expected p) in
      expected_total := !expected_total + List.length want;
      check name
        (Locking.Copy_table.holders ct p = want)
        (Printf.sprintf "holders of page %d differ from the registered set" p))
    queried;
  check name (!total = rounds * !expected_total) "holder counts drifted";
  ns /. float_of_int ops

let waits_for ctx =
  let name = "waits_for" and n = 200_000 in
  let len = max 2 (min ctx.job.Job.cfg.Config.num_clients 32) in
  let wf = Locking.Waits_for.create () in
  let cancelled = ref [] in
  for i = 0 to len - 1 do
    Locking.Waits_for.begin_txn wf i ~start:(float_of_int i)
  done;
  let wait i blocker =
    Locking.Waits_for.set_wait wf i ~blockers:[ blocker ] ~cancel:(fun () ->
        cancelled := i :: !cancelled)
  in
  for i = 0 to len - 2 do
    wait i (i + 1)
  done;
  let victims = ref 0 in
  let (), ns =
    timed_ns (fun () ->
        for _ = 1 to n do
          victims := !victims + Locking.Waits_for.check_deadlock wf ~from:0
        done)
  in
  check name (!victims = 0) "found a cycle in an acyclic chain";
  (* Plant a cycle: the youngest transaction must be the one victim. *)
  wait (len - 1) 0;
  let v = Locking.Waits_for.check_deadlock wf ~from:(len - 1) in
  check name (v = 1 && !cancelled = [ len - 1 ]) "missed the planted cycle";
  check name (Locking.Waits_for.any_cycle wf = None) "cycle left behind";
  ns /. float_of_int n

(* User work at one client CPU.  A client runs one operation at a time,
   so its CPU serves one user job at a time (an instrumented build of
   [Cpu] saw a concurrency of exactly 1 on every workload).  Job sizes
   are the per-object read and write costs of the workload's own
   operations, in their order. *)
let cpu ctx =
  let name = "cpu" and n = 200_000 in
  let p = ctx.job.Job.params in
  let costs =
    Array.map
      (fun (op : Workload.Refstring.op) ->
        if op.write then p.Workload.Wparams.per_object_write_instr
        else p.per_object_read_instr)
      (Array.concat (Array.to_list (txns ctx ~n:2000)))
  in
  let cost i = costs.(i mod Array.length costs) in
  let mips = ctx.job.Job.cfg.Config.client_mips in
  let engine = Engine.create () in
  let c = Resources.Cpu.create engine ~name:"probe" ~mips in
  let finished = ref 0 in
  Proc.spawn engine (fun () ->
      for i = 0 to n - 1 do
        Resources.Cpu.user c (cost i);
        incr finished
      done);
  let (), ns = timed_ns (fun () -> Engine.run engine) in
  check name (!finished = n) "a user job never completed";
  (* The processor is work-conserving: the last job ends exactly when
     the total work is done. *)
  let work = ref 0.0 in
  for i = 0 to n - 1 do
    work := !work +. cost i
  done;
  let ideal = !work /. (mips *. 1e6) in
  check name
    (Float.abs (Engine.now engine -. ideal) <= 1e-6 *. ideal)
    "processor sharing lost or invented work";
  (* Each job reschedules the processor twice: on arrival and on
     departure. *)
  ns /. float_of_int (2 * n)

let lru ctx =
  let name = "lru" in
  let capacity = Config.client_buf_pages ctx.job.Job.cfg in
  let stream =
    Array.concat
      (List.map Array.of_list (Array.to_list (page_lists ctx ~n:6000)))
  in
  let l = Storage.Lru.create ~capacity in
  let hits = ref 0 and misses = ref 0 in
  let (), ns =
    timed_ns (fun () ->
        Array.iter
          (fun p ->
            match Storage.Lru.find l p with
            | Some () -> incr hits
            | None ->
              incr misses;
              ignore (Storage.Lru.add l p () : _ option))
          stream)
  in
  let n = Array.length stream in
  let distinct = List.length (List.sort_uniq compare (Array.to_list stream)) in
  check name (!hits + !misses = n) "lost touches";
  check name
    (Storage.Lru.size l = min capacity distinct)
    "cache size differs from min(capacity, distinct pages)";
  ns /. float_of_int n

let workload ctx =
  let name = "workload" and n = 20_000 in
  let txns, ns = timed_ns (fun () -> txns ctx ~n) in
  Array.iter
    (fun t -> check name (Array.length t > 0) "empty transaction")
    txns;
  ns /. float_of_int n

let histogram ctx =
  let name = "histogram" and n = 1_000_000 in
  let r = rng ctx "probe.histogram" in
  let samples =
    Array.init n (fun _ ->
        Rng.exponential r ~mean:(Float.max 1e-3 ctx.resp_mean))
  in
  let h = Telemetry.Histogram.create () in
  let (), ns =
    timed_ns (fun () -> Array.iter (Telemetry.Histogram.record h) samples)
  in
  check name (Telemetry.Histogram.count h = n) "lost samples";
  check name
    (Telemetry.Histogram.max_value h = Array.fold_left Float.max 0.0 samples)
    "maximum not recorded";
  ns /. float_of_int n

(* Server recovery drill: a fresh model of the workload's first cell,
   warmed up, stops submitting new transactions, loses server 0 and
   restarts it after the profile's restart delay; the drill runs until
   the server has reopened.  Stopping new work first makes the drill
   time the recovery itself (redo replay, then callback reconstruction
   from every client) rather than the retry storm around it, which at
   50k clients costs minutes of host time.  Random server crashes stay
   off (a rate of 1e-12 only arms the down-server handling), so every
   seed sees exactly one crash at the same instant. *)
type drill = { recovery_ms : float; crashes : int; recoveries : int }

let srv_drill ctx =
  let name = "srv_drill" and job = ctx.job in
  let faults = { job.cfg.Config.faults with Faults.srv_crash_rate = 1e-12 } in
  let sys =
    Model.create ~cfg:{ job.cfg with Config.faults } ~algo:job.algo
      ~params:job.params ~seed:(Job.seed job)
  in
  Netlayer.install_edge_exchange sys;
  Audit.install sys;
  Client.start sys;
  Crash.install sys;
  let warm = Float.min job.warmup 5.0 and limit = 300.0 in
  Engine.run_until ?max_events:job.max_events sys.engine warm;
  sys.live <- false;
  Crash.crash_server sys 0;
  Proc.spawn sys.engine (fun () ->
      Proc.hold sys.engine faults.Faults.srv_restart_delay;
      Crash.restart_server sys 0);
  let rec go t =
    if Faults.srv_recoveries sys.faults = 0 && t < warm +. limit then begin
      Engine.run_until ?max_events:job.max_events sys.engine (t +. 1.0);
      go (t +. 1.0)
    end
  in
  go warm;
  check name (Faults.srv_recoveries sys.faults = 1) "server never reopened";
  Audit.check sys ~context:"srv-drill";
  Option.iter Oracle.Checker.check sys.oracle;
  {
    recovery_ms = 1000.0 *. Faults.srv_recovery_mean sys.faults;
    crashes = Faults.srv_crashes sys.faults;
    recoveries = Faults.srv_recoveries sys.faults;
  }

(* Name, per-layer metric and probe, in run order. *)
let all =
  [
    ("equeue", "equeue.ns_per_event", equeue);
    ("proc", "proc.ns_per_switch", proc);
    ("lock_table", "lock_table.ns_per_grant", lock_table);
    ("copy_table", "copy_table.ns_per_holders", copy_table);
    ("waits_for", "waits_for.ns_per_cycle_check", waits_for);
    ("cpu", "cpu.ns_per_reschedule", cpu);
    ("lru", "lru.ns_per_touch", lru);
    ("workload", "workload.ns_per_txn", workload);
    ("histogram", "histogram.ns_per_record", histogram);
  ]
