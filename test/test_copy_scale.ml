(* Scaling properties of the sparse copy table.

   The table used to be a dense per-item [int array] over all clients;
   the sparse rewrite (compact holder vectors + per-site item indexes)
   must be observationally identical, so a reference model with the old
   dense shape is driven through random register/unregister/purge
   storms and every query compared after every step.  A separate check
   pins the purge-client cost: purging a site must not walk the whole
   table. *)

open Locking

(* --- Dense reference model ------------------------------------------------ *)

module Dense = struct
  type t = {
    clients : int;
    rows : (int, int array) Hashtbl.t; (* item -> per-client refcounts *)
  }

  let create ~clients = { clients; rows = Hashtbl.create 64 }

  let row t item =
    match Hashtbl.find_opt t.rows item with
    | Some r -> r
    | None ->
      let r = Array.make t.clients 0 in
      Hashtbl.replace t.rows item r;
      r

  let register t item ~client =
    let r = row t item in
    r.(client) <- r.(client) + 1

  let unregister t item ~client =
    match Hashtbl.find_opt t.rows item with
    | Some r when r.(client) > 0 -> r.(client) <- r.(client) - 1
    | Some _ | None -> ()

  let refs t item ~client =
    match Hashtbl.find_opt t.rows item with
    | Some r -> r.(client)
    | None -> 0

  let holders t item =
    match Hashtbl.find_opt t.rows item with
    | None -> []
    | Some r ->
      let acc = ref [] in
      for c = t.clients - 1 downto 0 do
        if r.(c) > 0 then acc := c :: !acc
      done;
      !acc

  let holders_except t item ~client =
    List.filter (fun c -> c <> client) (holders t item)

  let copies t =
    Hashtbl.fold
      (fun _ r acc ->
        acc + Array.fold_left (fun a n -> if n > 0 then a + 1 else a) 0 r)
      t.rows 0

  let client_copies t ~client =
    Hashtbl.fold
      (fun _ r acc -> if r.(client) > 0 then acc + 1 else acc)
      t.rows 0

  let purge_client t ~client =
    Hashtbl.fold
      (fun _ r acc ->
        if r.(client) > 0 then begin
          r.(client) <- 0;
          acc + 1
        end
        else acc)
      t.rows 0
end

(* --- Model equivalence under random storms -------------------------------- *)

(* Items are dense object numbers as an object-grain table sees them:
   under hash partitioning, server [s] owns the pages congruent to [s]
   modulo the server count, and each page holds [objects_per_page]
   slots.  Whole-page registrations mirror a PS-OO page shipment, so a
   site's index grows through several resizes and the strided ids
   exercise the hash's collision chains.  Half the page numbers put a
   20-slot page across the boundary of two {!Copy_table.block_size}-item
   blocks, and shipping a page twice, or registering an item twice,
   takes its references to 2. *)
let servers = 4 and objects_per_page = 20 and pages = 40

let obj_id ~s ~k ~slot = ((s + (servers * k)) * objects_per_page) + slot

type op =
  | Register of int * int
  | Unregister of int * int
  | Ship of int * int  (** register every slot of one page *)
  | Release of int * int  (** unregister every slot of one page *)
  | Purge of int

let page_items ~s k = List.init objects_per_page (fun slot -> obj_id ~s ~k ~slot)

let op_gen ~s ~clients =
  QCheck.Gen.(
    let client = int_bound (clients - 1) and page = int_bound (pages - 1) in
    let item =
      map2 (fun k slot -> obj_id ~s ~k ~slot) page
        (int_bound (objects_per_page - 1))
    in
    frequency
      [
        (5, map2 (fun i c -> Register (i, c)) item client);
        (4, map2 (fun i c -> Unregister (i, c)) item client);
        (2, map2 (fun k c -> Ship (k, c)) page client);
        (1, map2 (fun k c -> Release (k, c)) page client);
        (1, map (fun c -> Purge c) client);
      ])

let show_op = function
  | Register (i, c) -> Printf.sprintf "Register(%d,%d)" i c
  | Unregister (i, c) -> Printf.sprintf "Unregister(%d,%d)" i c
  | Ship (k, c) -> Printf.sprintf "Ship(%d,%d)" k c
  | Release (k, c) -> Printf.sprintf "Release(%d,%d)" k c
  | Purge c -> Printf.sprintf "Purge(%d)" c

let prop_sparse_matches_dense =
  let clients = 7 in
  let arb =
    QCheck.make
      ~print:(fun (s, ops) ->
        Printf.sprintf "server %d: %s" s
          (String.concat "; " (List.map show_op ops)))
      QCheck.Gen.(
        int_bound (servers - 1) >>= fun s ->
        map (fun ops -> (s, ops))
          (list_size (int_range 0 120) (op_gen ~s ~clients)))
  in
  QCheck.Test.make ~name:"sparse copy table matches dense reference" ~count:300
    arb
    (fun (s, ops) ->
      let sparse = Copy_table.create ~clients in
      let dense = Dense.create ~clients in
      let all_clients = List.init clients Fun.id in
      let same_item i =
        Copy_table.holders sparse i = Dense.holders dense i
        && List.for_all
             (fun c ->
               Copy_table.refs sparse i ~client:c = Dense.refs dense i ~client:c
               && Copy_table.holds sparse i ~client:c
                  = (Dense.refs dense i ~client:c > 0)
               && Copy_table.holders_except sparse i ~client:c
                  = Dense.holders_except dense i ~client:c)
             all_clients
      in
      (* The run query must agree with per-item [holds], over runs
         that start at each item and cross into the next block.
         [window.(j)] packs [holds] of the [block_size] items from
         [lo + j] on, lowest item in bit 0. *)
      let same_masks c items =
        let bs = Copy_table.block_size in
        let lo = List.fold_left min max_int items in
        let n = List.fold_left max min_int items + bs - lo in
        let window = Array.make (n + 1) 0 in
        for j = n - 1 downto 0 do
          let bit = Bool.to_int (Copy_table.holds sparse (lo + j) ~client:c) in
          window.(j) <- ((window.(j + 1) lsl 1) lor bit) land ((1 lsl bs) - 1)
        done;
        List.for_all
          (fun i ->
            List.for_all
              (fun len ->
                Copy_table.held_mask sparse i ~len ~client:c
                = window.(i - lo) land ((1 lsl len) - 1))
              [ 0; 1; 13; bs ])
          items
      in
      let domain = List.concat_map (page_items ~s) (List.init pages Fun.id) in
      let client_of = function
        | Register (_, c) | Unregister (_, c) | Ship (_, c) | Release (_, c)
        | Purge c ->
          c
      in
      let items_of = function
        | Register (i, _) | Unregister (i, _) -> [ i ]
        | Ship (k, _) | Release (k, _) -> page_items ~s k
        | Purge _ -> domain
      in
      List.for_all
        (fun op ->
          (match op with
          | Register (i, c) ->
            Copy_table.register sparse i ~client:c;
            Dense.register dense i ~client:c
          | Unregister (i, c) ->
            Copy_table.unregister sparse i ~client:c;
            Dense.unregister dense i ~client:c
          | Ship (k, c) ->
            List.iter
              (fun i ->
                Copy_table.register sparse i ~client:c;
                Dense.register dense i ~client:c)
              (page_items ~s k)
          | Release (k, c) ->
            List.iter
              (fun i ->
                Copy_table.unregister sparse i ~client:c;
                Dense.unregister dense i ~client:c)
              (page_items ~s k)
          | Purge c ->
            let got = Copy_table.purge_client sparse ~client:c in
            let want = Dense.purge_client dense ~client:c in
            if got <> want then
              QCheck.Test.fail_reportf "purge returned %d, expected %d" got
                want);
          (* Compare every observation the server makes: the counts
             after every step, together with the O(1) total the audit
             relies on, and every item the step can have changed. *)
          let per_client =
            List.map (fun c -> Copy_table.client_copies sparse ~client:c)
              all_clients
          in
          Copy_table.copies sparse = Dense.copies dense
          && Copy_table.copies sparse = List.fold_left ( + ) 0 per_client
          && per_client
             = List.map (fun c -> Dense.client_copies dense ~client:c)
                 all_clients
          && List.for_all same_item (items_of op)
          && same_masks (client_of op) (items_of op))
        ops
      (* Finally every item in the server's domain, touched or not. *)
      && List.for_all same_item domain
      && List.for_all (fun c -> same_masks c domain) all_clients)

(* --- Purge cost: no full-table walk --------------------------------------- *)

(* A site's purge must cost O(that site's copies), independent of the
   table size.  Build a table with 200k rows held by other sites, then
   purge a site holding nothing many times over: each purge is O(1), so
   even a slow CI box finishes far inside the bound, while a dense
   full-table walk (2 * 10^8 row visits here) cannot. *)
let test_purge_cost_independent_of_table () =
  let rows = 200_000 and purges = 1_000 in
  let ct = Copy_table.create ~clients:4 in
  for i = 0 to rows - 1 do
    Copy_table.register ct i ~client:(1 + (i mod 3))
  done;
  (* Client 0 holds a handful; the first purge returns them, the rest
     purge an empty site. *)
  for i = 0 to 9 do
    Copy_table.register ct i ~client:0
  done;
  let t0 = Unix.gettimeofday () in
  let first = Copy_table.purge_client ct ~client:0 in
  for _ = 2 to purges do
    ignore (Copy_table.purge_client ct ~client:0 : int)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "first purge returns the site's copies" 10 first;
  Alcotest.(check int) "table untouched for other sites" rows
    (Copy_table.copies ct);
  if dt > 1.0 then
    Alcotest.failf
      "%d purges over a %d-row table took %.2fs — purge_client is walking \
       the table"
      purges rows dt

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
    Alcotest.test_case "purge cost independent of table size" `Quick
      test_purge_cost_independent_of_table;
  ]
