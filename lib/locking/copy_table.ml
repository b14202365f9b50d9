(* Sparse holder representation.  The dense version kept an
   [int array] of size [num_clients] per item, which makes every
   callback collection O(clients) and a 10k-client run quadratic in
   population.  Here each item row is a compact ascending vector of
   holder sites, and each site keeps an item -> refcount index, so:

     holders / holders_except   O(holders of that item)
     refs / holds               O(1) expected (site-index lookup)
     client_copies              O(1)          (site-index length)
     purge_client               O(that site's copies)

   The ascending order of [holders] is load-bearing: callback fan-out
   iterates it, so it determines message order and therefore the RNG
   draw sequence.  The sorted vector reproduces the dense scan's
   ascending order exactly.  No result depends on hash-table iteration
   order, so the choice of hash function cannot move a simulation.

   Items are plain ints (page ids, or dense object numbers), hashed
   monomorphically: a polymorphic [Hashtbl] pays a C [caml_hash] and a
   [compare_val] call per probe, and the object-grain callback and
   audit paths probe once per slot of every page. *)

(* The bucket index is the hash's low bits.  The identity would not
   do: hash partitioning gives each server the page ids congruent to
   its sid modulo the server count, which would share 1/N of the
   power-of-two buckets.  So the key's 64-wide block number goes
   through a multiplicative mix folded down to the low bits and is
   XORed into the key: every bucket stays reachable, while the keys of
   one block (a page's dense object numbers, which register, release
   and audit visit together) land in one 64-bucket window instead of
   being scattered over the whole bucket array. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash x =
    let m = (x lsr 6) * 0x2545F4914F6CDD1D in
    x lxor m lxor (m lsr 32)
end)

type row = {
  mutable cids : int array; (* holder sites, ascending; first [len] live *)
  mutable len : int;
}

type t = {
  clients : int;
  rows : row Itbl.t;
  (* Per site, item -> positive refcount.  Allocated lazily: most
     sites never touch most servers' tables. *)
  index : int Itbl.t option array;
  mutable total : int; (* (item, site) pairs with count > 0 *)
}

let create ~clients =
  if clients <= 0 then invalid_arg "Copy_table.create: clients";
  { clients; rows = Itbl.create 1024; index = Array.make clients None; total = 0 }

let check_client t client =
  if client < 0 || client >= t.clients then
    invalid_arg "Copy_table: client out of range"

let idx t client =
  match t.index.(client) with
  | Some h -> h
  | None ->
    let h = Itbl.create 16 in
    t.index.(client) <- Some h;
    h

(* First position whose cid is >= [cid]. *)
let lower_bound row cid =
  let lo = ref 0 and hi = ref row.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if row.cids.(mid) < cid then lo := mid + 1 else hi := mid
  done;
  !lo

let row_insert row cid =
  let pos = lower_bound row cid in
  if row.len = Array.length row.cids then begin
    let a = Array.make (max 2 (2 * row.len)) 0 in
    Array.blit row.cids 0 a 0 pos;
    Array.blit row.cids pos a (pos + 1) (row.len - pos);
    a.(pos) <- cid;
    row.cids <- a
  end
  else begin
    Array.blit row.cids pos row.cids (pos + 1) (row.len - pos);
    row.cids.(pos) <- cid
  end;
  row.len <- row.len + 1

let row_remove row cid =
  let pos = lower_bound row cid in
  assert (pos < row.len && row.cids.(pos) = cid);
  Array.blit row.cids (pos + 1) row.cids pos (row.len - pos - 1);
  row.len <- row.len - 1

let register t item ~client =
  check_client t client;
  let h = idx t client in
  match Itbl.find_opt h item with
  | Some n -> Itbl.replace h item (n + 1)
  | None ->
    (* [add], not [replace]: the key is known absent, so skip the
       second bucket walk. *)
    Itbl.add h item 1;
    t.total <- t.total + 1;
    let row =
      match Itbl.find_opt t.rows item with
      | Some r -> r
      | None ->
        let r = { cids = Array.make 2 0; len = 0 } in
        Itbl.add t.rows item r;
        r
    in
    row_insert row client

let unregister t item ~client =
  check_client t client;
  match t.index.(client) with
  | None -> ()
  | Some h -> (
    match Itbl.find_opt h item with
    | None -> ()
    | Some 1 ->
      Itbl.remove h item;
      t.total <- t.total - 1;
      let row = Itbl.find t.rows item in
      row_remove row client;
      if row.len = 0 then Itbl.remove t.rows item
    | Some n -> Itbl.replace h item (n - 1))

let refs t item ~client =
  check_client t client;
  match t.index.(client) with
  | None -> 0
  | Some h -> ( match Itbl.find_opt h item with Some n -> n | None -> 0)

let holds t item ~client =
  check_client t client;
  match t.index.(client) with None -> false | Some h -> Itbl.mem h item

let holders t item =
  match Itbl.find_opt t.rows item with
  | None -> []
  | Some row ->
    let out = ref [] in
    for i = row.len - 1 downto 0 do
      out := row.cids.(i) :: !out
    done;
    !out

let holders_except t item ~client =
  match Itbl.find_opt t.rows item with
  | None -> []
  | Some row ->
    (* One pass, ascending, skipping the requester. *)
    let out = ref [] in
    for i = row.len - 1 downto 0 do
      let c = row.cids.(i) in
      if c <> client then out := c :: !out
    done;
    !out

let copies t = t.total

let client_copies t ~client =
  check_client t client;
  match t.index.(client) with None -> 0 | Some h -> Itbl.length h

let purge_client t ~client =
  check_client t client;
  match t.index.(client) with
  | None -> 0
  | Some h ->
    let n = Itbl.length h in
    Itbl.iter
      (fun item _refs ->
        t.total <- t.total - 1;
        let row = Itbl.find t.rows item in
        row_remove row client;
        if row.len = 0 then Itbl.remove t.rows item)
      h;
    t.index.(client) <- None;
    n
