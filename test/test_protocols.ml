(* Integration tests of the five protocols: controlled two-client
   scenarios that check the paper's Section 3 behaviours — purges,
   unavailable marking, adaptive callbacks, escalation/de-escalation,
   blocking, deadlock recovery, and merge accounting — plus a full
   post-quiescence audit of lock and copy-table state.

   Every update made during these runs is additionally checked by the
   kernel's own invariants (no concurrent updates to one object; every
   update covered by a server write lock). *)

open Oodb_core
open Storage

let oid page slot = Ids.Oid.make ~page ~slot
let op ?(write = false) o = { Workload.Refstring.oid = o; write }
let read_op p s = op (oid p s)
let write_op p s = op ~write:true (oid p s)

let mk_sys ?(clients = 2) algo =
  let cfg = { Config.default with Config.num_clients = clients } in
  let params =
    Workload.Presets.make Workload.Presets.Uniform ~db_pages:cfg.Config.db_pages
      ~objects_per_page:cfg.Config.objects_per_page ~num_clients:clients
      ~locality:Workload.Presets.Low ~write_prob:0.0
  in
  Model.create ~cfg ~algo ~params ~seed:11

let run_all sys txns =
  (* Launch one transaction per (client, ops) pair and run to
     completion. *)
  let remaining = ref (List.length txns) in
  List.iter
    (fun (client, ops) ->
      Client.run_one sys ~client (Array.of_list ops) (fun () -> decr remaining))
    txns;
  Simcore.Engine.run_until sys.Model.engine 60.0;
  Alcotest.(check int) "all transactions committed" 0 !remaining

let run_staggered sys txns =
  (* Like run_all but starting each transaction [delay] seconds apart. *)
  let remaining = ref (List.length txns) in
  List.iter
    (fun (delay, client, ops) ->
      Simcore.Engine.schedule_after sys.Model.engine delay (fun () ->
          Client.run_one sys ~client (Array.of_list ops) (fun () ->
              decr remaining)))
    txns;
  Simcore.Engine.run_until sys.Model.engine 60.0;
  Alcotest.(check int) "all transactions committed" 0 !remaining

(* After quiescence: no locks, no waiters, no running transactions, and
   the copy tables exactly mirror the client caches. *)
let audit sys =
  Alcotest.(check int) "no page locks" 0
    (Locking.Lock_table.lock_count sys.Model.servers.(0).plocks);
  Alcotest.(check int) "no object locks" 0
    (Locking.Lock_table.lock_count sys.Model.servers.(0).olocks);
  Alcotest.(check int) "no queued requests" 0
    (Locking.Lock_table.waiter_count sys.Model.servers.(0).plocks
    + Locking.Lock_table.waiter_count sys.Model.servers.(0).olocks);
  Alcotest.(check int) "no waiting txns" 0
    (Locking.Waits_for.waiting_count sys.Model.servers.(0).wfg);
  let cs = sys.Model.clients in
  for cid = 0 to cs.Model.n - 1 do
    Alcotest.(check bool) "client idle" true (cs.Model.running.(cid) = None);
    (* Page-grain copy tracking must match the cache exactly. *)
    if Algo.page_grain_copies sys.Model.algo then
      Lru.iter cs.Model.cache.(cid) (fun p _ ->
          if
            not
              (Locking.Copy_table.holds sys.Model.servers.(0).pcopies p
                 ~client:cid)
          then Alcotest.failf "cached page %d not registered" p);
    if sys.Model.algo = Algo.OS then
      Lru.iter cs.Model.ocache.(cid) (fun o _ ->
          if
            not
              (Locking.Copy_table.holds sys.Model.servers.(0).ocopies
                 (Model.obj_key sys o) ~client:cid)
          then
            Alcotest.failf "cached object %d.%d not registered" o.Ids.Oid.page
              o.Ids.Oid.slot)
  done

let cache_entry sys client p =
  Lru.peek sys.Model.clients.Model.cache.(client) p
let caches_page sys client p = cache_entry sys client p <> None

let slot_unavailable sys client p s =
  match cache_entry sys client p with
  | Some e -> Ids.Int_set.mem s e.Model.unavailable
  | None -> false

(* --- PS: page-grain callbacks purge whole pages -------------------------- *)

let test_ps_callback_purges_page () =
  let sys = mk_sys Algo.PS in
  run_staggered sys
    [
      (0.0, 1, [ read_op 5 0; read_op 5 1 ]);
      (* reader caches page 5 *)
      (1.0, 0, [ read_op 5 2; write_op 5 2 ]);
      (* writer updates another object *)
    ];
  Alcotest.(check bool) "reader's copy purged (false sharing!)" false
    (caches_page sys 1 5);
  Alcotest.(check bool) "writer keeps its copy" true (caches_page sys 0 5);
  Alcotest.(check int) "one page-grain write grant" 1
    (Metrics.page_write_grants sys.Model.metrics);
  audit sys

(* --- OS: object-grain purges leave other objects cached ------------------- *)

let test_os_callback_purges_object_only () =
  let sys = mk_sys Algo.OS in
  run_staggered sys
    [
      (0.0, 1, [ read_op 5 0; read_op 5 1 ]);
      (1.0, 0, [ read_op 5 0; write_op 5 0 ]);
    ];
  let ocache1 = sys.Model.clients.Model.ocache.(1) in
  Alcotest.(check bool) "victim object purged" false
    (Lru.mem ocache1 (oid 5 0));
  Alcotest.(check bool) "other object survives" true
    (Lru.mem ocache1 (oid 5 1));
  audit sys

(* --- PS-OO: marks objects, never purges pages ----------------------------- *)

let test_ps_oo_marks_object () =
  let sys = mk_sys Algo.PS_OO in
  run_staggered sys
    [
      (0.0, 1, [ read_op 5 0; read_op 5 1 ]);
      (1.0, 0, [ read_op 5 0; write_op 5 0 ]);
    ];
  Alcotest.(check bool) "page stays cached" true (caches_page sys 1 5);
  Alcotest.(check bool) "victim slot unavailable" true
    (slot_unavailable sys 1 5 0);
  Alcotest.(check bool) "other slot still available" false
    (slot_unavailable sys 1 5 1);
  audit sys

(* --- PS-OA: purges the page when not in use, marks when it is ------------- *)

let test_ps_oa_purges_idle_page () =
  let sys = mk_sys Algo.PS_OA in
  run_staggered sys
    [
      (0.0, 1, [ read_op 5 0 ]);
      (* reader finishes, page idle in its cache *)
      (1.0, 0, [ read_op 5 1; write_op 5 1 ]);
    ];
  Alcotest.(check bool) "idle page purged whole" false (caches_page sys 1 5);
  audit sys

let test_ps_oa_marks_in_use_page () =
  let sys = mk_sys Algo.PS_OA in
  (* Client 1 holds page 5 in use (long transaction over cold pages)
     while client 0 updates object 5.1. *)
  let browse = List.init 40 (fun i -> read_op (100 + i) 0) in
  run_staggered sys
    [
      (0.0, 1, (read_op 5 0 :: browse));
      (0.05, 0, [ read_op 5 1; write_op 5 1 ]);
    ];
  (* The callback happened while page 5 was in use at client 1: the
     entry survives with slot 1 marked; the local transaction has
     committed by now, which does not clear the mark. *)
  Alcotest.(check bool) "page survives" true (caches_page sys 1 5);
  Alcotest.(check bool) "slot marked" true (slot_unavailable sys 1 5 1);
  audit sys

(* --- PS-AA: escalation and de-escalation ---------------------------------- *)

let test_ps_aa_escalates_when_alone () =
  let sys = mk_sys Algo.PS_AA in
  run_all sys [ (0, [ read_op 5 0; write_op 5 0; read_op 5 1; write_op 5 1 ]) ];
  Alcotest.(check int) "page-grain grant" 1
    (Metrics.page_write_grants sys.Model.metrics);
  Alcotest.(check int) "no extra object grants" 0
    (Metrics.object_write_grants sys.Model.metrics);
  audit sys

let test_ps_aa_object_grant_when_shared () =
  let sys = mk_sys Algo.PS_AA in
  let browse = List.init 40 (fun i -> read_op (100 + i) 0) in
  run_staggered sys
    [
      (0.0, 1, (read_op 5 0 :: browse));
      (* page in use at client 1 *)
      (0.05, 0, [ read_op 5 1; write_op 5 1 ]);
    ];
  Alcotest.(check int) "object-grain grant" 1
    (Metrics.object_write_grants sys.Model.metrics);
  Alcotest.(check int) "no page grant" 0
    (Metrics.page_write_grants sys.Model.metrics);
  audit sys

let test_ps_aa_deescalation () =
  let sys = mk_sys Algo.PS_AA in
  let browse = List.init 40 (fun i -> read_op (100 + i) 0) in
  run_staggered sys
    [
      (* writer escalates to a page lock, then keeps browsing *)
      (0.0, 0, (read_op 5 0 :: write_op 5 0 :: browse));
      (* reader of a different object forces de-escalation *)
      (0.1, 1, [ read_op 5 9 ]);
    ];
  Alcotest.(check int) "one de-escalation" 1
    (Metrics.deescalations sys.Model.metrics);
  audit sys

let test_ps_aa_reescalates_after_contention_gone () =
  let sys = mk_sys Algo.PS_AA in
  let browse = List.init 40 (fun i -> read_op (100 + i) 0) in
  (* Phase 1: contention on page 5 (object grant).  Phase 2: the reader
     is long gone; a fresh writer purges everywhere and escalates. *)
  run_staggered sys
    [
      (0.0, 1, (read_op 5 0 :: browse));
      (0.05, 0, [ read_op 5 1; write_op 5 1 ]);
      (30.0, 0, [ read_op 5 2; write_op 5 2 ]);
    ];
  Alcotest.(check int) "re-escalated to page grant" 1
    (Metrics.page_write_grants sys.Model.metrics);
  audit sys

(* --- Blocking reads -------------------------------------------------------- *)

let test_reader_blocks_behind_writer () =
  (* Under every protocol, a read of a write-locked object must wait for
     the writer's commit (no dirty reads). *)
  List.iter
    (fun algo ->
      let sys = mk_sys algo in
      let browse = List.init 30 (fun i -> read_op (100 + i) 0) in
      let writer_committed = ref 0.0 and reader_committed = ref 0.0 in
      Client.run_one sys ~client:0
        (Array.of_list ((read_op 5 0 :: write_op 5 0 :: browse)))
        (fun () -> writer_committed := Simcore.Engine.now sys.Model.engine);
      Simcore.Engine.schedule_after sys.Model.engine 0.05 (fun () ->
          Client.run_one sys ~client:1
            [| read_op 5 0 |]
            (fun () -> reader_committed := Simcore.Engine.now sys.Model.engine));
      Simcore.Engine.run_until sys.Model.engine 60.0;
      Alcotest.(check bool)
        (Algo.to_string algo ^ ": both committed")
        true
        (!writer_committed > 0.0 && !reader_committed > 0.0);
      Alcotest.(check bool)
        (Algo.to_string algo ^ ": reader waited for writer commit")
        true
        (!reader_committed >= !writer_committed);
      audit sys)
    Algo.all

(* --- Concurrent updates to one page (merging) ------------------------------ *)

let test_concurrent_page_updates_merge () =
  (* Object-grain protocols allow two clients to update different
     objects of the same page concurrently; the server must merge. *)
  List.iter
    (fun algo ->
      let sys = mk_sys algo in
      let browse c = List.init 20 (fun i -> read_op (100 + (60 * c) + i) 0) in
      run_staggered sys
        [
          (0.0, 0, (read_op 5 0 :: write_op 5 0 :: browse 0));
          (0.01, 1, (read_op 5 9 :: write_op 5 9 :: browse 1));
        ];
      Alcotest.(check bool)
        (Algo.to_string algo ^ ": merging happened")
        true
        (Metrics.merges sys.Model.metrics > 0);
      audit sys)
    [ Algo.PS_OO; Algo.PS_OA; Algo.PS_AA ]

let test_ps_serializes_page_writers () =
  (* Under PS the same scenario must NOT merge: the page lock serializes
     the two writers. *)
  let sys = mk_sys Algo.PS in
  let browse c = List.init 20 (fun i -> read_op (100 + (60 * c) + i) 0) in
  run_staggered sys
    [
      (0.0, 0, (read_op 5 0 :: write_op 5 0 :: browse 0));
      (0.01, 1, (read_op 5 9 :: write_op 5 9 :: browse 1));
    ];
  Alcotest.(check int) "no merges" 0 (Metrics.merges sys.Model.metrics);
  Alcotest.(check int) "two page grants" 2
    (Metrics.page_write_grants sys.Model.metrics);
  audit sys

(* --- Deadlock recovery ------------------------------------------------------ *)

let test_deadlock_recovery () =
  (* Classic crossing writers: t0 updates a then b; t1 updates b then a.
     One will abort and restart; both must eventually commit. *)
  List.iter
    (fun algo ->
      let sys = mk_sys algo in
      let pad = List.init 10 (fun i -> read_op (200 + i) 0) in
      run_staggered sys
        [
          (0.0, 0, (read_op 5 0 :: write_op 5 0 :: pad) @ [ read_op 7 0; write_op 7 0 ]);
          (0.0, 1, (read_op 7 0 :: write_op 7 0 :: pad) @ [ read_op 5 0; write_op 5 0 ]);
        ];
      Alcotest.(check bool)
        (Algo.to_string algo ^ ": deadlock detected and resolved")
        true
        (Locking.Waits_for.deadlocks sys.Model.servers.(0).wfg >= 1);
      audit sys)
    Algo.all

(* --- Unavailable objects force a refetch that blocks ------------------------ *)

let test_marked_object_refetch () =
  let sys = mk_sys Algo.PS_OO in
  let browse = List.init 30 (fun i -> read_op (100 + i) 0) in
  run_staggered sys
    [
      (0.0, 1, (read_op 5 1 :: browse));
      (* keeps page 5 in use *)
      (0.05, 0, [ read_op 5 0; write_op 5 0 ]);
      (* marks 5.0 at client 1 *)
      (20.0, 1, [ read_op 5 0 ]);
      (* must refetch page 5 *)
    ];
  (* The refetch gives client 1 a fresh, fully available copy. *)
  Alcotest.(check bool) "slot available again" false
    (slot_unavailable sys 1 5 0);
  audit sys

let suite =
  [
    Alcotest.test_case "PS callback purges page" `Quick test_ps_callback_purges_page;
    Alcotest.test_case "OS callback purges object only" `Quick
      test_os_callback_purges_object_only;
    Alcotest.test_case "PS-OO marks object" `Quick test_ps_oo_marks_object;
    Alcotest.test_case "PS-OA purges idle page" `Quick test_ps_oa_purges_idle_page;
    Alcotest.test_case "PS-OA marks in-use page" `Quick test_ps_oa_marks_in_use_page;
    Alcotest.test_case "PS-AA escalates when alone" `Quick
      test_ps_aa_escalates_when_alone;
    Alcotest.test_case "PS-AA object grant when shared" `Quick
      test_ps_aa_object_grant_when_shared;
    Alcotest.test_case "PS-AA de-escalation" `Quick test_ps_aa_deescalation;
    Alcotest.test_case "PS-AA re-escalates" `Quick
      test_ps_aa_reescalates_after_contention_gone;
    Alcotest.test_case "reader blocks behind writer (all)" `Quick
      test_reader_blocks_behind_writer;
    Alcotest.test_case "concurrent page updates merge" `Quick
      test_concurrent_page_updates_merge;
    Alcotest.test_case "PS serializes page writers" `Quick
      test_ps_serializes_page_writers;
    Alcotest.test_case "deadlock recovery (all)" `Quick test_deadlock_recovery;
    Alcotest.test_case "marked object refetched" `Quick test_marked_object_refetch;
  ]
