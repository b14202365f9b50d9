(* A fixed amount of host work that shares no code with the simulator.

   The host this benchmark runs on is shared: its speed drifts by a
   quarter or more over minutes, and process CPU time drifts with wall
   time, so the slowdown is in the processor (a busy sibling thread,
   shared caches), not in scheduling.  Repeating passes inside one run
   cannot remove a drift that lasts the whole run.  So calibrated runs
   sample this kernel all through every cell and report the simulator's
   times as multiples of the kernel's: a drift that slows both cancels,
   and a change to the simulator moves only the numerator.

   The kernel is made of the kinds of work the simulator's hot paths do:
   a binary heap of boxed timestamps (the event queue), hash-table
   lookups and updates (lock and copy tables), short-lived allocation
   (events, messages) and scattered updates of boxed state (per-client
   and per-page records).  Their shares were fitted on a shared 2-core
   x86-64 host: over 75 paper-hotcold cells whose times varied by 16%
   (coefficient of variation per protocol), the cell time over this mix
   varied by 4%.  Hash-table work tracked the simulator best; dependent
   reads over a region larger than the caches did not track it at all,
   so the kernel has none.  Its inputs come from its own generator, so
   its work is the same on every run. *)

(* A linear congruential generator (java.util.Random's constants, modulo
   the native int) and 30 of its upper bits. *)
let next s = (s * 25214903917) + 11
let bits s = (s lsr 17) land 0x3FFFFFFF

type state = {
  heap : (float * int) array;
  table : (int, int) Hashtbl.t;
  cells : int ref array;
}

let heap_size = 4096
let table_keys = 16_384
let cell_count = 131_072

let make () =
  {
    heap = Array.init heap_size (fun i -> (float_of_int i, i));
    table =
      (let t = Hashtbl.create table_keys in
       for k = 0 to table_keys - 1 do
         Hashtbl.replace t (k * 7919) k
       done;
       t);
    cells = Array.init cell_count ref;
  }

let state = lazy (make ())

let sift_down (heap : (float * int) array) i0 =
  let n = Array.length heap in
  let x = heap.(i0) in
  let rec go i =
    let l = (2 * i) + 1 in
    if l >= n then heap.(i) <- x
    else
      let c =
        if l + 1 < n && fst heap.(l + 1) < fst heap.(l) then l + 1 else l
      in
      if fst heap.(c) < fst x then begin
        heap.(i) <- heap.(c);
        go c
      end
      else heap.(i) <- x
  in
  go i0

(* One round; the loop counts set the parts' shares of the time, about
   2 : 4 : 1 : 1 in the order below. *)
let round st s =
  let s = ref s and acc = ref 0 in
  (* event queue: replace the minimum with a later timestamp *)
  for _ = 1 to 300 do
    s := next !s;
    let t, id = st.heap.(0) in
    st.heap.(0) <- (t +. float_of_int (bits !s land 1023), id + 1);
    sift_down st.heap 0
  done;
  (* tables: look up and overwrite *)
  for _ = 1 to 2000 do
    s := next !s;
    let k = bits !s mod table_keys * 7919 in
    let v = Hashtbl.find st.table k in
    Hashtbl.replace st.table k (v + 1);
    acc := !acc + v
  done;
  (* short-lived allocation *)
  for _ = 1 to 300 do
    s := next !s;
    let l = List.init 8 (fun i -> (i, !s)) in
    acc := !acc + List.length (List.rev l)
  done;
  (* scattered updates of boxed state, through the write barrier *)
  for _ = 1 to 400 do
    s := next !s;
    let r = st.cells.(bits !s mod cell_count) in
    s := next !s;
    st.cells.(bits !s mod cell_count) <- ref (!r + 1)
  done;
  (!s, !acc)

let rounds = 25

(* The kernel's time on the quiet 2-core x86-64 host it was sized on,
   rounded.  Set-up times over the kernel's, times this, read as seconds
   on that host. *)
let reference_s = 0.010

(* Run the kernel once, about 10 ms on a 2-core x86-64 host; returns its
   wall and CPU seconds. *)
let run ~cpu_now =
  let st = Lazy.force state in
  let t0 = Unix.gettimeofday () and c0 = cpu_now () in
  let s = ref 1 and acc = ref 0 in
  for _ = 1 to rounds do
    let s', a = round st !s in
    s := s';
    acc := !acc + a
  done;
  ignore (Sys.opaque_identity !acc);
  (Unix.gettimeofday () -. t0, cpu_now () -. c0)
