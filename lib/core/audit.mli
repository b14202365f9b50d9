(** Always-on invariant auditor.

    Inspects the shared system state — lock tables, waits-for graph,
    copy tables, client caches — and raises {!Violation} when a
    structural invariant of the protocols is broken.  The checks are
    pure inspection: no randomness is consumed and no events are
    scheduled, so auditing never perturbs the simulation and runs
    identically whether faults are enabled or not.

    The audit runs at every transaction boundary (commit and abort),
    after every injected fault (via {!install}, which registers it as
    the {!Faults} hook), and at end of run.  Unlike the quiescence
    audit in the fuzz tests, it must hold at {e any} instant, so it
    checks coverage (at least one registration per cached copy) rather
    than exact mirroring (in-flight registrations are legal). *)

exception Violation of string
(** Carries the failed invariant, the audit context, the simulated
    clock, and a diagnostic dump of the lock/wait state. *)

val check : ?context:string -> ?coverage_of:int -> Model.sys -> unit
(** Verify every invariant; raises {!Violation} on the first failure.
    [coverage_of] restricts the (linear-in-cache-size) copy-coverage
    sweep to one client — used at transaction boundaries, where only
    the terminating client's cache changed; every other check is always
    global.  Fault-hook and end-of-run audits sweep everything.

    Invariants:
    + every lock holder and queued waiter is an active transaction
      (begun and not ended) — in particular no crashed client's
      transaction holds or awaits locks;
    + page write locks coexist with no {e foreign} object write lock on
      the same page (lock-mode compatibility across granularities);
    + every page/object cached at an {e up} client is covered by at
      least one copy-table registration, so it remains a callback
      target (copies of a partition whose server is down or recovering
      are exempt until its tables are rebuilt).  Object-grain copies
      are probed by dense object number, so PS-OO's per-slot sweep
      builds no [Oid] unless it reports a violation;
    + a crashed (down) client has no running transaction, empty caches,
      and no copy-table registrations;
    + the waits-for graph is acyclic (deadlock detection left no cycle
      behind);
    + the updated-object sets of concurrently running transactions are
      pairwise disjoint (write isolation);
    + a crashed (down) server holds no locks, copy-table registrations,
      write tokens or buffered pages.  The copy-table test reads each
      table's O(1) total, so it costs nothing per client. *)

val install : Model.sys -> unit
(** Register [check sys] as the fault-injection hook, so every injected
    crash, message fault, and disk stall is immediately followed by a
    full audit. *)
