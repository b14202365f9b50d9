(* The benchmark's three workloads, each a list of simulation cells
   described as [Job.t]s.  Building the list builds the workload
   parameters (for ocb-falseshare that includes the OCB object base),
   which the benchmark times as the "params" stage of set-up.

   Cell windows are simulated seconds.  They are sized so one pass of a
   workload takes a few seconds of host time on a 2-core x86-64 host,
   which lets a run repeat the pass and report medians.  See
   WORKLOADS.md for why each workload exists. *)

open Oodb_core

(* The shape of a workload's event stream, which the event-queue probe
   replays: [zero_delay_share] is the share of pushes that go to the
   zero-delay ring, and [delay_quantiles] are the 0, 5, ..., 100%
   quantiles of the delay, in simulated seconds, of every other push.
   Measured by counting pushes in an instrumented build of
   [Simcore.Equeue] over one pass of the workload at seed 101; seed 102
   agreed within 1%, apart from the extreme quantiles and scale-storm's
   95% one.  No push to the heap had a zero delay and no timer was
   cancelled, on any workload.  WORKLOADS.md has the figures; measure
   them again when the simulator's event mix changes. *)
type stream = { zero_delay_share : float; delay_quantiles : float array }

(* [slice] is the calibrated run's slice of simulated time (see
   Cell.calib), about 0.1 s of host time on a 2-core x86-64 host.
   [setup_reps] is how many set-ups one set-up sample averages, about
   20 ms of host time there: a constant, so the sample does the same
   work however fast the host runs. *)
type t = {
  name : string;
  jobs : seed:int -> Job.t list;
  stream : stream;
  slice : float;
  setup_reps : int;
}

(* Safety valve per [Engine.run_until] window: far above what any cell
   needs, so exceeding it means a runaway simulation, not a big cell. *)
let max_events = 200_000_000

let per_algo ~seed ~name ~cfg ~params ~warmup ~measure algos =
  List.map
    (fun algo ->
      Job.make ~base_seed:seed ~max_events ~sweep:name
        ~label:(Algo.to_string algo) ~cfg ~algo ~params ~warmup ~measure ())
    algos

(* fig3's reference point: HOTCOLD, low locality, write probability 0.1
   on the paper's Table 1 system, once per protocol, over fig3's own
   120-second measurement window. *)
let paper_hotcold =
  let name = "paper-hotcold" in
  let jobs ~seed =
    let spec = Option.get (Experiments.find "fig3") in
    per_algo ~seed ~name ~cfg:(Experiments.cfg_of spec)
      ~params:(Experiments.params_of spec ~write_prob:0.1)
      ~warmup:10.0 ~measure:120.0 Algo.all
  in
  let stream =
    {
      zero_delay_share = 0.5105;
      delay_quantiles =
        [| 1.103e-06; 1e-05; 2e-05; 2e-05; 2e-05; 2e-05; 2e-05; 2.56e-05;
           2.56e-05; 0.0001667; 0.0006667; 0.0006667; 0.0006667; 0.0006667;
           0.0006875; 0.0006875; 0.0007041; 0.001333; 0.001375; 0.001408;
           1.697 |];
    }
  in
  { name; jobs; stream; slice = 10.0; setup_reps = 40 }

(* The cluster sweep's scatter cell (worst placement, Zipf 0.8 hotspot)
   on two hash-partitioned servers with the serializability oracle on. *)
let ocb_falseshare =
  let name = "ocb-falseshare" in
  let jobs ~seed =
    let cfg =
      { Config.default with Config.servers = 2; partition = Config.Hash;
        oracle = true }
    in
    per_algo ~seed ~name ~cfg
      ~params:
        (Experiments.cluster_params ~policy:Workload.Placement.Scatter
           ~theta:0.8)
      ~warmup:10.0 ~measure:60.0 Algo.all
  in
  let stream =
    {
      zero_delay_share = 0.5191;
      delay_quantiles =
        [| 2.682e-07; 1e-05; 1e-05; 2e-05; 2e-05; 2.56e-05; 2.56e-05;
           2.56e-05; 4.6e-05; 0.0004352; 0.0006667; 0.0006875; 0.0006875;
           0.0006875; 0.0006875; 0.0006875; 0.001333; 0.001375; 0.001375;
           0.001375; 2.28 |];
    }
  in
  { name; jobs; stream; slice = 5.0; setup_reps = 8 }

(* scale_bench's 50k-client cell: every client thinks 0.05 * n seconds,
   so the closed loop offers about 20 txn/s whatever n is; the server
   hardware is scaled up so the population, not a disk queue, is what
   costs.  Four servers and a mild fault profile (client crashes,
   message loss and duplication, disk stalls) exercise crash
   injection, retransmission and the full audit sweep each fault
   triggers.  Server crashes are left out: a restarting server rebuilds
   its callback state from every client in turn, about a minute of
   simulated time at this population, so whether a run draws zero, one
   or two of them would swing throughput far beyond any bound.  The
   traced run measures server recovery with a fixed drill instead. *)
let scale_clients = 50_000

let storm_faults =
  {
    Faults.off with
    Faults.crash_rate = 5e-5;
    msg_loss_prob = 5e-4;
    msg_dup_prob = 2.5e-4;
    disk_stall_prob = 5e-4;
  }

let scale_storm =
  let name = "scale-storm" in
  let jobs ~seed =
    let cfg =
      {
        Config.default with
        Config.num_clients = scale_clients;
        server_mips = 1500.0;
        server_disks = 128;
        network_mbits = 2000.0;
        servers = 4;
        faults = storm_faults;
      }
    in
    let params =
      Workload.Presets.(
        make Uniform
          ~think_time:(0.05 *. float_of_int scale_clients)
          ~db_pages:cfg.Config.db_pages
          ~objects_per_page:cfg.Config.objects_per_page
          ~num_clients:scale_clients ~locality:Low ~write_prob:0.1)
    in
    per_algo ~seed ~name ~cfg ~params ~warmup:5.0 ~measure:180.0
      [ Algo.PS_AA ]
  in
  let stream =
    {
      zero_delay_share = 0.5144;
      delay_quantiles =
        [| 2e-07; 2e-07; 1.024e-06; 1.024e-06; 1.024e-06; 1.333e-06;
           1.375e-05; 1.375e-05; 1.375e-05; 1.375e-05; 1.741e-05; 2e-05;
           2e-05; 2e-05; 0.0006667; 0.0006667; 0.001333; 0.001375; 0.001375;
           0.002042; 1.794e+05 |];
    }
  in
  { name; jobs; stream; slice = 2.5; setup_reps = 1 }

let all = [ paper_hotcold; ocb_falseshare; scale_storm ]
let find name = List.find_opt (fun w -> w.name = name) all
