(* Sparse holder representation.  The dense version kept an
   [int array] of size [num_clients] per item, which makes every
   callback collection O(clients) and a 10k-client run quadratic in
   population.  Here each item row is a compact ascending vector of
   holder sites, and each site keeps a block -> held-bits index, so:

     holders / holders_except   O(holders of that item)
     refs / holds / held_mask   O(1) expected (site-index lookup)
     client_copies              O(1)          (per-site count)
     purge_client               O(that site's copies)

   The ascending order of [holders] is load-bearing: callback fan-out
   iterates it, so it determines message order and therefore the RNG
   draw sequence.  The sorted vector reproduces the dense scan's
   ascending order exactly.  No result depends on hash-table iteration
   order, so the choice of hash function cannot move a simulation.

   Items are plain ints (page ids, or dense object numbers), hashed
   monomorphically: a polymorphic [Hashtbl] pays a C [caml_hash] and a
   [compare_val] call per probe, and the object-grain callback path
   probes once per slot of every page.  The audit's coverage walk
   probes once per block instead, through [held_mask]. *)

(* The bucket index is the hash's low bits.  The identity would not
   do: hash partitioning gives each server the page ids congruent to
   its sid modulo the server count, which would share 1/N of the
   power-of-two buckets.  So the key's 64-wide block number goes
   through a multiplicative mix folded down to the low bits and is
   XORed into the key: every bucket stays reachable, while the keys of
   one block (a page's dense object numbers, which register and
   release visit together) land in one 64-bucket window instead of
   being scattered over the whole bucket array.  The site indexes key
   the same table by block number. *)
let mix x =
  let m = (x lsr 6) * 0x2545F4914F6CDD1D in
  x lxor m lxor (m lsr 32)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = mix
end)

type row = {
  mutable cids : int array; (* holder sites, ascending; first [len] live *)
  mutable len : int;
}

let block_bits = 5
let block_size = 1 lsl block_bits

(* One site's registrations, grouped into [block_size]-item blocks.
   [cells] is an open-addressing table of (block number, held bits)
   pairs, probed linearly from the block's [mix]: a probe reads a key
   and its mask from adjacent words and allocates nothing, so a
   coverage walk over a run of items costs one probe per block.  A zero
   mask marks an empty pair, since a stored block always holds an item.
   A second reference to an item (a fresh copy in transit over the
   cached one) is rare and short-lived, so references beyond the first
   go to [extra], which exists only while some item has one. *)
type site = {
  mutable cells : int array; (* block, mask, block, mask, ... *)
  mutable blocks : int; (* pairs in use; at most half of them *)
  mutable count : int; (* items held *)
  mutable extra : int Itbl.t option; (* item -> references beyond the first *)
}

type t = {
  clients : int;
  rows : row Itbl.t;
  (* Allocated lazily: most sites never touch most servers' tables. *)
  index : site option array;
  mutable total : int; (* (item, site) pairs with count > 0 *)
}

let create ~clients =
  if clients <= 0 then invalid_arg "Copy_table.create: clients";
  { clients; rows = Itbl.create 1024; index = Array.make clients None; total = 0 }

let check_client t client =
  if client < 0 || client >= t.clients then
    invalid_arg "Copy_table: client out of range"

let site t client =
  match t.index.(client) with
  | Some s -> s
  | None ->
    let s = { cells = Array.make 16 0; blocks = 0; count = 0; extra = None } in
    t.index.(client) <- Some s;
    s

let block item = item asr block_bits
let bit item = 1 lsl (item land (block_size - 1))

(* --- A site's block table ---------------------------------------------- *)

let last_pair s = (Array.length s.cells lsr 1) - 1

(* The pair holding block [b], or the empty pair that ends its run. *)
let rec probe cells last b i =
  if cells.((2 * i) + 1) = 0 || cells.(2 * i) = b then i
  else probe cells last b ((i + 1) land last)

let pair_of s b =
  let last = last_pair s in
  probe s.cells last b (mix b land last)

let mask_of s b = s.cells.((2 * pair_of s b) + 1)

(* Store a nonzero mask for [b], doubling the table to keep it at most
   half full. *)
let rec set_mask s b m =
  let i = pair_of s b in
  if s.cells.((2 * i) + 1) <> 0 then s.cells.((2 * i) + 1) <- m
  else if 2 * (s.blocks + 1) > last_pair s + 1 then begin
    let old = s.cells in
    s.cells <- Array.make (2 * Array.length old) 0;
    s.blocks <- 0;
    for j = 0 to (Array.length old / 2) - 1 do
      if old.((2 * j) + 1) <> 0 then set_mask s old.(2 * j) old.((2 * j) + 1)
    done;
    set_mask s b m
  end
  else begin
    s.cells.(2 * i) <- b;
    s.cells.((2 * i) + 1) <- m;
    s.blocks <- s.blocks + 1
  end

(* Remove the stored block [b] by backward shifting: each later pair of
   the probe run moves into the hole unless its home lies cyclically in
   (hole, its position], so every run stays unbroken. *)
let remove_block s b =
  let cells = s.cells and last = last_pair s in
  let hole = ref (pair_of s b) in
  let j = ref ((!hole + 1) land last) in
  while cells.((2 * !j) + 1) <> 0 do
    let home = mix cells.(2 * !j) land last in
    let stays =
      if !hole <= !j then !hole < home && home <= !j
      else !hole < home || home <= !j
    in
    if not stays then begin
      cells.(2 * !hole) <- cells.(2 * !j);
      cells.((2 * !hole) + 1) <- cells.((2 * !j) + 1);
      hole := !j
    end;
    j := (!j + 1) land last
  done;
  cells.((2 * !hole) + 1) <- 0;
  s.blocks <- s.blocks - 1

let extra_refs s item =
  match s.extra with
  | None -> 0
  | Some h -> ( match Itbl.find_opt h item with Some n -> n | None -> 0)

(* --- Holder rows ------------------------------------------------------- *)

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

let row_remove t item cid =
  let row = Itbl.find t.rows item in
  let pos = lower_bound row cid in
  assert (pos < row.len && row.cids.(pos) = cid);
  Array.blit row.cids (pos + 1) row.cids pos (row.len - pos - 1);
  row.len <- row.len - 1;
  if row.len = 0 then Itbl.remove t.rows item

let register t item ~client =
  check_client t client;
  let s = site t client in
  let b = block item in
  let m = mask_of s b in
  if m land bit item <> 0 then begin
    let h =
      match s.extra with
      | Some h -> h
      | None ->
        let h = Itbl.create 16 in
        s.extra <- Some h;
        h
    in
    Itbl.replace h item (extra_refs s item + 1)
  end
  else begin
    set_mask s b (m lor bit item);
    s.count <- s.count + 1;
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
  end

let unregister t item ~client =
  check_client t client;
  match t.index.(client) with
  | None -> ()
  | Some s ->
    let b = block item in
    let m = mask_of s b in
    if m land bit item <> 0 then
      match s.extra with
      | Some h when Itbl.mem h item -> (
        match Itbl.find h item with
        | 1 ->
          Itbl.remove h item;
          if Itbl.length h = 0 then s.extra <- None
        | n -> Itbl.replace h item (n - 1))
      | Some _ | None ->
        let m = m land lnot (bit item) in
        if m = 0 then remove_block s b else set_mask s b m;
        s.count <- s.count - 1;
        t.total <- t.total - 1;
        row_remove t item client

let holds t item ~client =
  check_client t client;
  match t.index.(client) with
  | None -> false
  | Some s -> mask_of s (block item) land bit item <> 0

let refs t item ~client =
  check_client t client;
  match t.index.(client) with
  | Some s when mask_of s (block item) land bit item <> 0 ->
    1 + extra_refs s item
  | Some _ | None -> 0

let held_mask t item ~len ~client =
  check_client t client;
  if len < 0 || len > block_size then invalid_arg "Copy_table.held_mask: len";
  match t.index.(client) with
  | None -> 0
  | Some s ->
    let b = block item and off = item land (block_size - 1) in
    let m = mask_of s b lsr off in
    let m =
      if off + len <= block_size then m
      else m lor (mask_of s (b + 1) lsl (block_size - off))
    in
    m land ((1 lsl len) - 1)

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
  match t.index.(client) with None -> 0 | Some s -> s.count

let purge_client t ~client =
  check_client t client;
  match t.index.(client) with
  | None -> 0
  | Some s ->
    for i = 0 to last_pair s do
      let m = s.cells.((2 * i) + 1) in
      if m <> 0 then
        for k = 0 to block_size - 1 do
          if m land (1 lsl k) <> 0 then
            row_remove t ((s.cells.(2 * i) lsl block_bits) + k) client
        done
    done;
    t.total <- t.total - s.count;
    t.index.(client) <- None;
    s.count
