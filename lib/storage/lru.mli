(** Generic LRU cache with a fixed capacity.

    Backs both the client page caches and the server buffer pool (the
    model uses "an LRU page replacement policy", Section 4.1), as well
    as the object-grain cache of the object-server variant.  O(1)
    expected lookup, insertion, and eviction.

    Bindings live in parallel slot arrays linked by int indexes, with
    an int-array hash index over the keys (polymorphic [Hashtbl.hash]
    and [compare]).  Both start small and double on demand up to
    [capacity] slots, so an idle cache costs a few words whatever its
    capacity.  {!find}, {!touch} and {!add} allocate nothing beyond the
    option or eviction pair they return.  A removed binding's key and
    value stay reachable until its slot is reused. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [capacity] must be positive. *)

val capacity : _ t -> int
val size : _ t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup and mark as most recently used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup without touching recency. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership without touching recency. *)

val touch : ('k, 'v) t -> 'k -> unit
(** Mark as most recently used (no-op when absent). *)

val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** Insert (or replace) a binding and mark it most recently used.
    Returns the evicted least-recently-used binding when the insertion
    of a {e new} key overflows the capacity. *)

val remove : ('k, 'v) t -> 'k -> 'v option
(** Remove a binding, returning its value. *)

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
(** Iterate from most to least recently used.  [f] may remove the
    binding it is given, but must not otherwise modify the cache. *)

val fold : ('k, 'v) t -> init:'a -> f:('a -> 'k -> 'v -> 'a) -> 'a

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Bindings from most to least recently used. *)
