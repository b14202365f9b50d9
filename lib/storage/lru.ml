(* Slot arrays threaded by int links.

   Every binding lives in a slot: [keys.(s)] and [vals.(s)] hold it,
   [prev.(s)]/[next.(s)] link the recency list (-1 ends it) and
   [chain.(s)] links the slots of one hash bucket.  Free slots are
   threaded through [next] from [free].  A lookup hashes the key, walks
   its bucket's chain comparing keys, and touches only int arrays after
   that, so find, touch and add allocate nothing beyond the returned
   option, and [iter] follows plain array links.

   Both the slot arrays and the bucket array start small and grow on
   demand: a client's object cache has thousands of slots it may never
   fill, and a 50k-client population keeps two idle caches per client,
   so pre-sizing would charge gigabytes of idle slots.  A freed slot
   keeps its key and value until it is reused; the arrays never exceed
   [capacity] slots, so at most that many dead bindings stay reachable. *)

type ('k, 'v) t = {
  cap : int;
  mutable keys : 'k array;
  mutable vals : 'v array;
  mutable prev : int array; (* towards most recently used *)
  mutable next : int array; (* towards least recently used; free-list link *)
  mutable chain : int array; (* next slot in the same bucket *)
  mutable buckets : int array; (* first slot per bucket; power-of-two length *)
  mutable head : int; (* most recently used *)
  mutable tail : int; (* least recently used *)
  mutable free : int;
  mutable size : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  {
    cap = capacity;
    keys = [||];
    vals = [||];
    prev = [||];
    next = [||];
    chain = [||];
    buckets = [| -1 |];
    head = -1;
    tail = -1;
    free = -1;
    size = 0;
  }

let capacity t = t.cap
let size t = t.size

(* --- Hash index -------------------------------------------------------- *)

let bucket t k = Hashtbl.hash k land (Array.length t.buckets - 1)

let rec chain_find t k s =
  if s < 0 || compare t.keys.(s) k = 0 then s else chain_find t k t.chain.(s)

(* Slot of [k], or -1. *)
let find_slot t k = chain_find t k t.buckets.(bucket t k)

let index_add t s =
  let b = bucket t t.keys.(s) in
  t.chain.(s) <- t.buckets.(b);
  t.buckets.(b) <- s

let rec chain_unlink t s q =
  let n = t.chain.(q) in
  if n = s then t.chain.(q) <- t.chain.(s) else chain_unlink t s n

let index_remove t s =
  let b = bucket t t.keys.(s) in
  let first = t.buckets.(b) in
  if first = s then t.buckets.(b) <- t.chain.(s) else chain_unlink t s first

(* Keep at most one binding per bucket on average. *)
let grow_index t =
  t.buckets <- Array.make (2 * Array.length t.buckets) (-1);
  let s = ref t.head in
  while !s >= 0 do
    index_add t !s;
    s := t.next.(!s)
  done

(* --- Recency list ------------------------------------------------------ *)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

let touch_slot t s =
  if t.head <> s then begin
    unlink t s;
    push_front t s
  end

(* --- Slots ------------------------------------------------------------- *)

(* Called with every slot in use and [size < cap]; the new binding
   fills the new key and value cells. *)
let grow_slots t k v =
  let n = Array.length t.keys in
  let n' = min t.cap (max 8 (2 * n)) in
  let extend a fill =
    let b = Array.make n' fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.keys <- extend t.keys k;
  t.vals <- extend t.vals v;
  t.prev <- extend t.prev (-1);
  t.chain <- extend t.chain (-1);
  let next = extend t.next (-1) in
  for s = n to n' - 2 do
    next.(s) <- s + 1
  done;
  t.next <- next;
  t.free <- n

(* Drop the binding in slot [s] and put the slot on the free list. *)
let release t s =
  unlink t s;
  index_remove t s;
  t.next.(s) <- t.free;
  t.free <- s;
  t.size <- t.size - 1

(* --- Operations -------------------------------------------------------- *)

let find t k =
  let s = find_slot t k in
  if s < 0 then None
  else begin
    touch_slot t s;
    Some t.vals.(s)
  end

let peek t k =
  let s = find_slot t k in
  if s < 0 then None else Some t.vals.(s)

let mem t k = find_slot t k >= 0

let touch t k =
  let s = find_slot t k in
  if s >= 0 then touch_slot t s

let add t k v =
  let s = find_slot t k in
  if s >= 0 then begin
    t.vals.(s) <- v;
    touch_slot t s;
    None
  end
  else begin
    (* A new key into a full cache displaces the least recently used
       binding, which is the one the insertion would have pushed past
       the capacity. *)
    let evicted =
      if t.size < t.cap then None
      else begin
        let s = t.tail in
        let victim = (t.keys.(s), t.vals.(s)) in
        release t s;
        Some victim
      end
    in
    if t.free < 0 then grow_slots t k v;
    let s = t.free in
    t.free <- t.next.(s);
    t.keys.(s) <- k;
    t.vals.(s) <- v;
    push_front t s;
    t.size <- t.size + 1;
    index_add t s;
    if t.size > Array.length t.buckets then grow_index t;
    evicted
  end

let remove t k =
  let s = find_slot t k in
  if s < 0 then None
  else begin
    let v = t.vals.(s) in
    release t s;
    Some v
  end

let iter t f =
  let s = ref t.head in
  while !s >= 0 do
    let cur = !s in
    (* Read the link before [f], which may remove its own binding. *)
    s := t.next.(cur);
    f t.keys.(cur) t.vals.(cur)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
