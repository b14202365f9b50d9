(** Server-side registry of cached copies ("replica management").

    Tracks which client sites hold a cached copy of each item so the
    server knows where to direct callbacks.  The page-server protocols
    track pages; OS and PS-OO track objects (Section 3.3).

    Items are ints: page ids for page-grain tracking, and dense object
    numbers ({!Storage.Ids.Oid.to_int}) for object-grain tracking.  The
    table hashes them monomorphically with a cheap integer mix, so a
    probe makes no polymorphic [caml_hash]/[compare_val] call.

    Registrations are {e reference counted}: the server registers a
    copy when it ships it (before the reply reaches the client), so a
    client may momentarily hold two references to one item — the cached
    copy and a fresh copy in transit.  Installing the fresh copy over
    the old one releases the old copy's reference, and dropping a copy
    releases exactly one reference, so a registration in flight is
    never erased by the concurrent purge of its predecessor.  A site is
    a callback target while it holds any reference.

    The representation is sparse: each item keeps a compact ascending
    vector of holder sites and each site keeps an index of the items it
    holds, grouped into {!block_size}-item blocks of held bits, so
    [holders]/[holders_except] cost O(holders of the item),
    [client_copies] is O(1), {!held_mask} answers a whole run of items
    with one or two probes, and [purge_client] is O(that site's
    copies) — population-independent, which is what makes 10k+ client
    runs feasible. *)

type t

val create : clients:int -> t

val register : t -> int -> client:int -> unit
(** Add one reference. *)

val unregister : t -> int -> client:int -> unit
(** Release one reference (no-op at zero). *)

val holds : t -> int -> client:int -> bool
(** True while the site holds at least one reference. *)

val refs : t -> int -> client:int -> int

val block_size : int
(** Items per block of a site's index (32).  A run of items that stays
    inside one block costs {!held_mask} a single probe. *)

val held_mask : t -> int -> len:int -> client:int -> int
(** [held_mask t item ~len ~client] has bit [i] set, for [0 <= i < len],
    iff the site holds [item + i]: {!holds} over a whole run at once.
    [len] must lie in [\[0, block_size\]]. *)

val holders : t -> int -> int list
(** Sites holding at least one reference, ascending. *)

val holders_except : t -> int -> client:int -> int list
(** Callback targets: every holding site except the requester's. *)

val copies : t -> int
(** Number of (item, site) pairs with at least one reference. *)

val client_copies : t -> client:int -> int
(** Items for which the site holds at least one reference (audit). *)

val purge_client : t -> client:int -> int
(** Drop {e all} of one site's registrations — including references for
    copies still in transit — and return how many items were affected.
    Used when the site crashes: its volatile cache is gone, so it must
    stop being a callback target immediately. *)
