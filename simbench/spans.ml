(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code around each call
   into the simulator and around each probe; spans inside the
   simulator are out of scope.  A span carries its name, host start and
   end (seconds since the recorder was created), its parent, the cell
   it belongs to (-1 outside any cell) and the GC counters at both
   ends.  Everything stays in memory until [write_perfetto] at exit, so
   recording costs two clock reads and two [Gc.quick_stat]s per span. *)

type gc = { minor_words : float; promoted_words : float; major_gcs : int }

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  cell : int;
  t0 : float;
  mutable t1 : float;
  gc0 : gc;
  mutable gc1 : gc;
}

type t = {
  enabled : bool;
  clock : unit -> float;
  origin : float;
  mutable spans : span list;  (** newest first *)
  mutable stack : span list;  (** open spans, innermost first *)
  mutable next_id : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_gcs = s.Gc.major_collections;
  }

let create ?(clock = Unix.gettimeofday) ~enabled () =
  { enabled; clock; origin = clock (); spans = []; stack = []; next_id = 0 }

let with_span t ?cell name f =
  if not t.enabled then f ()
  else begin
    let parent, inherited =
      match t.stack with [] -> (-1, -1) | p :: _ -> (p.id, p.cell)
    in
    let gc0 = gc_now () in
    let s =
      {
        id = t.next_id;
        name;
        parent;
        cell = Option.value cell ~default:inherited;
        t0 = t.clock () -. t.origin;
        t1 = nan;
        gc0;
        gc1 = gc0;
      }
    in
    t.next_id <- t.next_id + 1;
    t.spans <- s :: t.spans;
    t.stack <- s :: t.stack;
    let close () =
      s.t1 <- t.clock () -. t.origin;
      s.gc1 <- gc_now ();
      t.stack <- List.tl t.stack
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Oldest first; only closed spans. *)
let spans t = List.rev (List.filter (fun s -> not (Float.is_nan s.t1)) t.spans)

let duration s = s.t1 -. s.t0

(* The recorder's own consistency, which a clock or stack bug would
   break: no span is left open, none ends before it starts, each lies
   within its parent's [t0, t1], and siblings do not overlap.  Self
   times add up to the root's duration by construction; this is what
   makes them mean something. *)
let check t =
  let by_id = Hashtbl.create 64 and sibling_end = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check_span s =
    if Float.is_nan s.t1 then bad "span %s was never closed" s.name
    else if s.t1 < s.t0 then bad "span %s ends before it starts" s.name
    else if s.parent < 0 then Ok ()
    else
      match Hashtbl.find_opt by_id s.parent with
      | None -> bad "span %s has no parent %d" s.name s.parent
      | Some p when s.t0 < p.t0 || s.t1 > p.t1 ->
        bad "span %s [%.9f, %.9f] leaves its parent %s [%.9f, %.9f]" s.name
          s.t0 s.t1 p.name p.t0 p.t1
      | Some p -> (
        match Hashtbl.find_opt sibling_end p.id with
        | Some t1 when s.t0 < t1 ->
          bad "span %s overlaps an earlier sibling under %s" s.name p.name
        | _ ->
          Hashtbl.replace sibling_end p.id s.t1;
          Ok ())
  in
  match t.stack with
  | s :: _ -> bad "span %s is still open" s.name
  | [] ->
    (* Oldest first, so siblings come in start order. *)
    List.fold_left
      (fun acc s -> Result.bind acc (fun () -> check_span s))
      (Ok ()) (List.rev t.spans)

(* A span's self time is its duration minus the time its direct
   children cover.  Children of one parent never overlap (the
   benchmark is single-threaded), so "covered" is the sum of their
   durations, and self times over a tree add up to the root's
   duration. *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    spans;
  List.map
    (fun s ->
      ( s,
        duration s
        -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0 ))
    spans

(* Self time summed per span name, in first-appearance order. *)
let self_by_name spans =
  let order = ref [] and tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some x -> Hashtbl.replace tbl s.name (x +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name self)
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* Inclusive duration and GC deltas summed over every span [name]. *)
let total spans name =
  List.fold_left
    (fun (d, minor, promoted, majors) s ->
      if s.name = name then
        ( d +. duration s,
          minor +. (s.gc1.minor_words -. s.gc0.minor_words),
          promoted +. (s.gc1.promoted_words -. s.gc0.promoted_words),
          majors + (s.gc1.major_gcs - s.gc0.major_gcs) )
      else (d, minor, promoted, majors))
    (0.0, 0.0, 0.0, 0) spans

(* Export as a Chrome/Perfetto trace: one track, one complete event per
   span (host seconds become trace microseconds), the cell id as the
   event argument. *)
let write_perfetto t ~process_name ~path =
  let spans = spans t in
  let tl =
    Telemetry.Timeline.create ~capacity:(max 1 (List.length spans)) ()
  in
  let track = Telemetry.Timeline.define_track tl "simbench" in
  List.iter
    (fun s ->
      Telemetry.Timeline.complete tl ~track
        ~name:(Telemetry.Timeline.intern tl s.name)
        ~arg:s.cell ~t0:s.t0 ~t1:s.t1 ())
    spans;
  ignore (Telemetry.Perfetto.write_file ~process_name ~path tl : int)
