open Model
open Storage
open Simcore

exception Violation of string

let oid_str o = Format.asprintf "%a" Ids.Oid.pp o

let dump_state sys =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "  clients:";
  let cs = sys.clients in
  for cid = 0 to cs.n - 1 do
    add " %d:%s%s" cid
      (if cs.up.(cid) then "up" else "DOWN")
      (match cs.running.(cid) with
      | Some t -> Printf.sprintf "(txn %d)" t.tid
      | None -> "")
  done;
  Array.iter
    (fun sv ->
      let tag =
        if Array.length sys.servers = 1 then ""
        else Printf.sprintf " s%d" sv.sid
      in
      add "\n %s waits-for:" tag;
      List.iter
        (fun (txn, blockers, info) ->
          add " %d->[%s]%s" txn
            (String.concat "," (List.map string_of_int blockers))
            (if info = "" then "" else "(" ^ info ^ ")"))
        (Locking.Waits_for.dump sv.wfg);
      add "\n %s page-lock queues:" tag;
      List.iter
        (fun (txn, desc) -> add " %d@%s" txn desc)
        (Locking.Lock_table.dump_waiting sv.plocks string_of_int);
      add "\n %s object-lock queues:" tag;
      List.iter
        (fun (txn, desc) -> add " %d@%s" txn desc)
        (Locking.Lock_table.dump_waiting sv.olocks oid_str))
    sys.servers;
  Buffer.contents b

let violation sys ~context fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Violation
           (Printf.sprintf "audit violation [%s] at t=%.6f: %s\n%s" context
              (Engine.now sys.engine) msg (dump_state sys))))
    fmt

(* Invariant 1: every lock-table holder and waiter is an active
   transaction.  A crashed client's transactions are ended during crash
   reclamation, so this also proves no dead client holds locks. *)
let check_lock_liveness sys ~context =
  Array.iter
    (fun sv ->
      (* begin/end_txn are replicated to every partition, so each
         server's own graph knows the full active set. *)
      let wfg = sv.wfg in
      let check_txn what show item txn =
        if not (Locking.Waits_for.is_active wfg txn) then
          violation sys ~context "%s %s by ended transaction %d" what
            (show item) txn
      in
      Locking.Lock_table.iter_holders sv.plocks (fun p h ->
          check_txn "page lock held" string_of_int p h);
      Locking.Lock_table.iter_holders sv.olocks (fun o h ->
          check_txn "object lock held" oid_str o h);
      Locking.Lock_table.iter_waiters sv.plocks (fun p w ->
          check_txn "page-lock wait queued" string_of_int p w);
      Locking.Lock_table.iter_waiters sv.olocks (fun o w ->
          check_txn "object-lock wait queued" oid_str o w))
    sys.servers

(* Invariant 2: granularity compatibility — a page write lock excludes
   object write locks on the same page by other transactions. *)
let check_lock_compat sys ~context =
  Array.iter
    (fun sv ->
      Locking.Lock_table.iter_holders sv.plocks (fun p h ->
          if Model.page_has_foreign_obj_lock sys p ~tid:h then
            violation sys ~context
              "page %d write-locked by txn %d while a foreign object lock \
               exists"
              p h))
    sys.servers

(* Bit [i] set iff slot [from + i] of a cached page is available, for
   [0 <= i < len]. *)
let available_mask unavailable ~from ~len =
  let all = (1 lsl len) - 1 in
  if Ids.Int_set.is_empty unavailable then all
  else
    Ids.Int_set.fold
      (fun slot m ->
        let i = slot - from in
        if i >= 0 && i < len then m land lnot (1 lsl i) else m)
      unavailable all

let rec lowest_bit m = if m land 1 <> 0 then 0 else 1 + lowest_bit (m lsr 1)

(* Invariant 3: callback coverage — every copy cached at an up client is
   registered (>= 1 reference; a second in-flight reference is legal).
   Without this the server would skip the client during callbacks and
   the stale copy could serve a later read.

   A partition whose server is down or recovering is exempt: its copy
   table was lost with the crash and is rebuilt (from exactly the
   cached copies enumerated here) before the server reopens — during
   the outage nothing can be granted there, so the uncovered copies
   are unreadable-stale at worst, never servable-stale.

   The whole check is disabled under the [srv_skip_reconstruction]
   sabotage: skipping the rebuild leaves copies permanently uncovered,
   and the point of that knob is proving the serializability oracle —
   not this audit — catches the resulting write skew. *)
let check_copy_coverage ?only sys ~context =
  if not sys.cfg.Config.srv_skip_reconstruction then begin
    let cs = sys.clients in
    let check_client cid =
      if cs.up.(cid) then
        let covered_partition p = (Model.server_of sys p).srv_state = Srv_up in
        if Algo.page_grain_copies sys.algo then
          Lru.iter cs.cache.(cid) (fun p _ ->
              if
                covered_partition p
                && not
                     (Locking.Copy_table.holds (Model.server_of sys p).pcopies
                        p ~client:cid)
              then
                violation sys ~context
                  "client %d caches page %d without a copy registration" cid p)
        else if sys.algo = Algo.OS then
          Lru.iter cs.ocache.(cid) (fun o _ ->
              if
                covered_partition o.Ids.Oid.page
                && not
                     (Locking.Copy_table.holds
                        (Model.server_of sys o.Ids.Oid.page).ocopies
                        (Model.obj_key sys o) ~client:cid)
              then
                violation sys ~context
                  "client %d caches object %s without a copy registration" cid
                  (oid_str o))
        else
          (* PS-OO: object-grain registrations for the available slots
             of each cached page.  The page's dense object numbers are
             walked in runs that stay inside one copy-table block, and
             each run's available-slot mask is compared with the
             registered mask in one probe; an [Oid] is built only to
             report a violation. *)
          let opp = sys.cfg.Config.objects_per_page in
          let bs = Locking.Copy_table.block_size in
          Lru.iter cs.cache.(cid) (fun p entry ->
              if covered_partition p then begin
                let ocopies = (Model.server_of sys p).ocopies in
                let slot = ref 0 in
                while !slot < opp do
                  let item = (p * opp) + !slot in
                  let len = min (opp - !slot) (bs - (item land (bs - 1))) in
                  let missing =
                    available_mask entry.unavailable ~from:!slot ~len
                    land lnot
                           (Locking.Copy_table.held_mask ocopies item ~len
                              ~client:cid)
                  in
                  if missing <> 0 then
                    violation sys ~context
                      "client %d caches available object %s without a copy \
                       registration"
                      cid
                      (oid_str
                         (Ids.Oid.make ~page:p
                            ~slot:(!slot + lowest_bit missing)));
                  slot := !slot + len
                done
              end)
    in
    (* Per-transaction-boundary audits scope to the one client whose
       cache changed; the full sweep remains for fault handlers and the
       negative tests that corrupt arbitrary clients. *)
    match only with
    | Some cid -> check_client cid
    | None ->
      for cid = 0 to cs.n - 1 do
        check_client cid
      done
  end

(* Invariant 4: a crashed client was fully reclaimed — cold caches, no
   transaction, no copy-table presence (it must not be a callback
   target: its cache is gone, so a callback would wait forever or,
   worse, "succeed" against nothing). *)
let check_crashed_clients sys ~context =
  let cs = sys.clients in
  for cid = 0 to cs.n - 1 do
    if not cs.up.(cid) then begin
      (match cs.running.(cid) with
      | Some t ->
        violation sys ~context "crashed client %d still runs txn %d" cid t.tid
      | None -> ());
      if Lru.size cs.cache.(cid) > 0 || Lru.size cs.ocache.(cid) > 0 then
        violation sys ~context
          "crashed client %d retains %d pages / %d objects in cache" cid
          (Lru.size cs.cache.(cid))
          (Lru.size cs.ocache.(cid));
      let count table_of =
        Array.fold_left
          (fun acc sv ->
            acc + Locking.Copy_table.client_copies (table_of sv) ~client:cid)
          0 sys.servers
      in
      let pc = count (fun sv -> sv.pcopies) in
      let oc = count (fun sv -> sv.ocopies) in
      if pc > 0 || oc > 0 then
        violation sys ~context
          "crashed client %d still registered for %d pages / %d objects" cid
          pc oc
    end
  done

(* Invariant 5: deadlock detection runs at every edge addition, so no
   cycle survives between events. *)
let check_acyclic sys ~context =
  Array.iter
    (fun sv ->
      match Locking.Waits_for.any_cycle sv.wfg with
      | None -> ()
      | Some cycle ->
        violation sys ~context "waits-for cycle left unbroken: [%s]"
          (String.concat " -> " (List.map string_of_int cycle)))
    sys.servers

(* Invariant 6: write isolation — no object sits in the updated set of
   two live transactions.  Gated off under [srv_skip_reconstruction]
   for the same reason as invariant 3: the sabotage deliberately
   breaks callback-based mutual exclusion, and the verdict must come
   from the serializability oracle, not a state-level check. *)
let check_update_disjoint sys ~context =
  if sys.cfg.Config.srv_skip_reconstruction then ()
  else
  let owner = Hashtbl.create 64 in
  let cs = sys.clients in
  for cid = 0 to cs.n - 1 do
    match cs.running.(cid) with
    (* A doomed transaction's updates are already discarded in spirit:
       it can only abort, and its covering locks at the crashed server
       are gone, so a post-recovery writer may legitimately overlap. *)
    | Some t when cs.up.(cid) && not t.doomed ->
      Ids.Oid_set.iter
        (fun o ->
          match Hashtbl.find_opt owner o with
          | Some other ->
            violation sys ~context "object %s updated by both txn %d and txn %d"
              (oid_str o) other t.tid
          | None -> Hashtbl.replace owner o t.tid)
        t.updated
    | Some _ | None -> ()
  done

(* Invariant 7: a down server was fully reclaimed — crash purging left
   no volatile state behind (locks, copy registrations, token owners).
   Mirrors invariant 4 for the server side; anything found here would
   be state that survived the "power cut" and could contradict the
   rebuilt tables after recovery. *)
let check_crashed_servers sys ~context =
  Array.iter
    (fun sv ->
      if sv.srv_state = Srv_down then begin
        let pl = Locking.Lock_table.lock_count sv.plocks in
        let ol = Locking.Lock_table.lock_count sv.olocks in
        if pl > 0 || ol > 0 then
          violation sys ~context
            "down server %d still holds %d page / %d object locks" sv.sid pl
            ol;
        let pc = Locking.Copy_table.copies sv.pcopies in
        let oc = Locking.Copy_table.copies sv.ocopies in
        if pc > 0 || oc > 0 then
          violation sys ~context
            "down server %d still registers %d page / %d object copies" sv.sid
            pc oc;
        if Hashtbl.length sv.token_owner > 0 then
          violation sys ~context "down server %d still owns %d write tokens"
            sv.sid
            (Hashtbl.length sv.token_owner);
        if Buffer_pool.size sv.sbuffer > 0 then
          violation sys ~context
            "down server %d retains %d buffered pages" sv.sid
            (Buffer_pool.size sv.sbuffer)
      end)
    sys.servers

let check ?(context = "") ?coverage_of sys =
  check_lock_liveness sys ~context;
  check_lock_compat sys ~context;
  check_copy_coverage ?only:coverage_of sys ~context;
  check_crashed_clients sys ~context;
  check_acyclic sys ~context;
  check_update_disjoint sys ~context;
  check_crashed_servers sys ~context

let install sys =
  Faults.set_hook sys.faults (fun context -> check ~context sys)
