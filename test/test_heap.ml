(* Heap: regions, allocation, movement, release, epochs, accounting. *)

module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator

let check = Alcotest.check

let make_heap ?(regions = 8) ?(region_words = 64) () =
  Heap.create ~capacity_words:(regions * region_words) ~region_words ()

(* alloc_in_region returns [Obj_model.null] when the region is full; the
   tests below want a hard failure in that case. *)
let alloc_exn h r ~size ~nfields =
  let id = Heap.alloc_in_region h r ~size ~nfields in
  if Obj_model.is_null id then failwith "alloc_exn: region full";
  id

let test_geometry () =
  let h = make_heap () in
  check Alcotest.int "regions" 8 (Heap.total_regions h);
  check Alcotest.int "free" 8 (Heap.free_regions h);
  check Alcotest.int "capacity" 512 (Heap.capacity_words h);
  check Alcotest.int "used" 0 (Heap.used_words h)

let test_create_rejects_tiny () =
  Alcotest.check_raises "one region" (Invalid_argument "Heap.create: need at least two regions")
    (fun () -> ignore (Heap.create ~capacity_words:64 ~region_words:64 ()))

let test_take_free_region () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  check Alcotest.bool "labelled" true (Region.space_equal r.Region.space Region.Eden);
  check Alcotest.int "free decremented" 7 (Heap.free_regions h)

let test_alloc_in_region () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let o = alloc_exn h r ~size:10 ~nfields:3 in
  check Alcotest.int "object size" 10 (Heap.obj_size h o);
  check Alcotest.int "fields" 3 (Heap.obj_nfields h o);
  check Alcotest.int "region used" 10 r.Region.used_words;
  check Alcotest.int "heap used" 10 (Heap.used_words h);
  check Alcotest.int "eden used" 10 (Heap.space_used_words h Region.Eden);
  check Alcotest.bool "live" true (Heap.is_live h o);
  check Alcotest.int "live objects" 1 (Heap.live_objects h);
  check Alcotest.int "live words" 10 (Heap.live_words_exact h)

let test_alloc_region_full () =
  let h = make_heap ~region_words:16 () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  check Alcotest.bool "first fits" true
    (not (Obj_model.is_null (Heap.alloc_in_region h r ~size:12 ~nfields:0)));
  check Alcotest.bool "second does not" true
    (Obj_model.is_null (Heap.alloc_in_region h r ~size:8 ~nfields:0))

let test_ids_unique_and_null () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let a = alloc_exn h r ~size:4 ~nfields:0 in
  let b = alloc_exn h r ~size:4 ~nfields:0 in
  check Alcotest.bool "distinct ids" true (a <> b);
  check Alcotest.bool "null is not live" false (Heap.is_live h Obj_model.null)

let test_release_region () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let o = alloc_exn h r ~size:10 ~nfields:0 in
  Heap.release_region h r;
  check Alcotest.bool "object dead" false (Heap.is_live h o);
  check Alcotest.int "free restored" 8 (Heap.free_regions h);
  check Alcotest.int "used zero" 0 (Heap.used_words h);
  check Alcotest.int "eden used zero" 0 (Heap.space_used_words h Region.Eden);
  check Alcotest.bool "region free" true (Region.space_equal r.Region.space Region.Free)

let test_move_object_survives_release () =
  let h = make_heap () in
  let src = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let dst = Option.get (Heap.take_free_region h ~space:Region.Old) in
  let o = alloc_exn h src ~size:10 ~nfields:0 in
  check Alcotest.bool "moved" true (Heap.move_object h o dst);
  check Alcotest.int "region updated" dst.Region.index (Heap.obj_region h o);
  Heap.release_region h src;
  check Alcotest.bool "still live after source release" true (Heap.is_live h o);
  check Alcotest.int "old space holds it" 10 (Heap.space_used_words h Region.Old)

let test_move_rejects_when_full () =
  let h = make_heap ~region_words:16 () in
  let src = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let dst = Option.get (Heap.take_free_region h ~space:Region.Old) in
  ignore (alloc_exn h dst ~size:12 ~nfields:0);
  let o = alloc_exn h src ~size:8 ~nfields:0 in
  check Alcotest.bool "no space" false (Heap.move_object h o dst)

let test_mark_epochs () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let o = alloc_exn h r ~size:4 ~nfields:0 in
  check Alcotest.bool "unmarked initially" false (Heap.is_marked h o);
  ignore (Heap.begin_mark_epoch h);
  Heap.set_marked h o;
  check Alcotest.bool "marked" true (Heap.is_marked h o);
  ignore (Heap.begin_mark_epoch h);
  check Alcotest.bool "stale after new epoch" false (Heap.is_marked h o);
  (* scratch epoch is independent *)
  ignore (Heap.begin_scratch_epoch h);
  Heap.set_scratch_marked h o;
  check Alcotest.bool "scratch marked" true (Heap.is_scratch_marked h o);
  check Alcotest.bool "main unaffected" false (Heap.is_marked h o)

let test_purge_unmarked () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let keep = alloc_exn h r ~size:4 ~nfields:0 in
  let drop = alloc_exn h r ~size:4 ~nfields:0 in
  ignore (Heap.begin_mark_epoch h);
  Heap.set_marked h keep;
  let into = Array.make 2 Obj_model.null in
  let n = Heap.sweep_unmarked h r ~into ~pos:1 in
  check Alcotest.int "one survivor written" 2 n;
  check Alcotest.int "survivor after pos" keep into.(1);
  check Alcotest.bool "marked survives" true (Heap.is_live h keep);
  check Alcotest.bool "unmarked purged" false (Heap.is_live h drop);
  check Alcotest.int "live count" 1 (Heap.live_objects h)

let test_release_keep_objects_and_place () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let o = alloc_exn h r ~size:10 ~nfields:0 in
  Heap.release_region_keep_objects h r;
  check Alcotest.bool "object survives raw release" true (Heap.is_live h o);
  check Alcotest.int "used reset" 0 (Heap.used_words h);
  let dst = Option.get (Heap.take_free_region h ~space:Region.Old) in
  check Alcotest.bool "placed" true (Heap.place_object h o dst);
  check Alcotest.int "used again" 10 (Heap.used_words h)

let test_alloc_reserve () =
  let h = make_heap () in
  Heap.set_alloc_reserve h 6;
  (* eden requests stop at the reserve *)
  check Alcotest.bool "eden 1" true (Heap.take_free_region h ~space:Region.Eden <> None);
  check Alcotest.bool "eden 2" true (Heap.take_free_region h ~space:Region.Eden <> None);
  check Alcotest.bool "eden blocked" true (Heap.take_free_region h ~space:Region.Eden = None);
  (* GC copy targets drain past the reserve *)
  check Alcotest.bool "old allowed" true (Heap.take_free_region h ~space:Region.Old <> None)

let test_reachable_from () =
  let h = make_heap () in
  let r = Option.get (Heap.take_free_region h ~space:Region.Eden) in
  let a = alloc_exn h r ~size:6 ~nfields:2 in
  let b = alloc_exn h r ~size:6 ~nfields:2 in
  let c = alloc_exn h r ~size:6 ~nfields:2 in
  let d = alloc_exn h r ~size:6 ~nfields:2 in
  Heap.set_field h a 0 b;
  Heap.set_field h b 0 c;
  Heap.set_field h b 1 a;
  (* cycle *)
  let reachable = Heap.reachable_from h [ a ] in
  check Alcotest.int "three reachable" 3 (Hashtbl.length reachable);
  check Alcotest.bool "d unreachable" false (Hashtbl.mem reachable d)

let test_regions_in_space () =
  let h = make_heap () in
  ignore (Heap.take_free_region h ~space:Region.Eden);
  ignore (Heap.take_free_region h ~space:Region.Old);
  ignore (Heap.take_free_region h ~space:Region.Old);
  check Alcotest.int "eden count" 1 (List.length (Heap.regions_in_space h Region.Eden));
  check Alcotest.int "old count" 2 (List.length (Heap.regions_in_space h Region.Old));
  check Alcotest.int "free count" 5 (List.length (Heap.regions_in_space h Region.Free))

(* qcheck: random alloc/release sequences keep the aggregate accounting
   consistent. *)
let prop_accounting =
  QCheck.Test.make ~name:"heap accounting stays consistent" ~count:100
    QCheck.(list (pair bool (int_range 4 20)))
    (fun ops ->
      let h = Heap.create ~capacity_words:(16 * 64) ~region_words:64 () in
      let taken = ref [] in
      List.iter
        (fun (release, size) ->
          if release then (
            match !taken with
            | r :: rest ->
                Heap.release_region h r;
                taken := rest
            | [] -> ())
          else
            match Heap.take_free_region h ~space:Region.Eden with
            | None -> ()
            | Some r ->
                ignore (Heap.alloc_in_region h r ~size ~nfields:0);
                taken := r :: !taken)
        ops;
      let sum_cursors = ref 0 in
      Heap.iter_regions
        (fun r ->
          if not (Region.space_equal r.Region.space Region.Free) then
            sum_cursors := !sum_cursors + r.Region.used_words)
        h;
      Heap.used_words h = !sum_cursors
      && Heap.free_regions h + List.length !taken = Heap.total_regions h)

(* qcheck: the sweep agrees with a reference two-walk implementation (free
   every unmarked resident, then list the residents): same survivors in the
   same order, same live counts, and — because it must free in the same
   order — the same ids and field extents handed to later allocations.
   Moves leave stale and duplicate entries in object vecs and a release
   recycles ids before the mark, so the walks see non-trivial vecs and
   free lists. *)
type sweep_op = Alloc of int * int | Move of int * int | Release of int

let sweep_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun slot nf -> Alloc (slot, nf)) (int_bound 3) (int_bound 4));
        (2, map2 (fun pick slot -> Move (pick, slot)) (int_bound 63) (int_bound 3));
        (1, map (fun slot -> Release slot) (int_bound 3));
      ])

let print_sweep_op = function
  | Alloc (slot, nf) -> Printf.sprintf "alloc(%d,%d)" slot nf
  | Move (pick, slot) -> Printf.sprintf "move(%d,%d)" pick slot
  | Release slot -> Printf.sprintf "release(%d)" slot

let build_swept_heap ops marks =
  let h = Heap.create ~capacity_words:(12 * 64) ~region_words:64 () in
  let space i = if i mod 2 = 0 then Region.Eden else Region.Old in
  let slots = Array.init 4 (fun i -> Option.get (Heap.take_free_region h ~space:(space i))) in
  let objs = ref [] in
  List.iter
    (function
      | Alloc (slot, nf) ->
          let id = Heap.alloc_in_region h slots.(slot) ~size:(nf + 3) ~nfields:nf in
          if not (Obj_model.is_null id) then objs := id :: !objs
      | Move (pick, slot) -> (
          match List.filter (Heap.is_live h) !objs with
          | [] -> ()
          | live ->
              let id = List.nth live (pick mod List.length live) in
              ignore (Heap.move_object h id slots.(slot)))
      | Release slot ->
          Heap.release_region h slots.(slot);
          slots.(slot) <- Option.get (Heap.take_free_region h ~space:(space slot)))
    ops;
  ignore (Heap.begin_mark_epoch h);
  (* the shrinker may empty [marks]: then nothing is marked *)
  let marked i = marks <> [] && List.nth marks (i mod List.length marks) in
  List.iteri
    (fun i id -> if Heap.is_live h id && marked i then Heap.set_marked h id)
    (List.rev !objs);
  h

let swept_by_two_walks h =
  let survivors = ref [] in
  Heap.iter_regions
    (fun r ->
      if not (Region.space_equal r.Region.space Region.Free) then begin
        Gcr_util.Ivec.iter
          (fun id ->
            if
              Heap.is_live h id
              && Heap.obj_region h id = r.Region.index
              && not (Heap.is_marked h id)
            then Heap.free_object h id)
          r.Region.objects;
        Heap.iter_resident_objects h r (fun id -> survivors := id :: !survivors)
      end)
    h;
  List.rev !survivors

let swept_by_sweep h =
  let bound = ref 0 in
  Heap.iter_regions (fun r -> bound := !bound + Gcr_util.Ivec.length r.Region.objects) h;
  let into = Array.make !bound Obj_model.null in
  let n = ref 0 in
  Heap.iter_regions
    (fun r ->
      if not (Region.space_equal r.Region.space Region.Free) then
        n := Heap.sweep_unmarked h r ~into ~pos:!n)
    h;
  Array.to_list (Array.sub into 0 !n)

let next_allocations h =
  let r = Option.get (Heap.take_free_region h ~space:Region.Old) in
  List.map
    (fun nf ->
      let id = Heap.alloc_in_region h r ~size:(nf + 3) ~nfields:nf in
      (id, Obj_model.field_extent (Heap.store h) id))
    [ 2; 0; 1; 4; 2; 3; 1; 0; 2; 4; 1 ]

let prop_sweep_matches_two_walks =
  QCheck.Test.make ~name:"sweep matches the two-walk purge" ~count:200
    QCheck.(
      pair
        (make ~print:(Print.list print_sweep_op) Gen.(list_size (int_range 1 80) sweep_op_gen))
        (list_of_size Gen.(int_range 1 16) bool))
    (fun (ops, marks) ->
      let a = build_swept_heap ops marks in
      let b = build_swept_heap ops marks in
      let old_survivors = swept_by_two_walks a in
      let new_survivors = swept_by_sweep b in
      old_survivors = new_survivors
      && Heap.live_objects a = Heap.live_objects b
      && Heap.live_words_exact a = Heap.live_words_exact b
      && next_allocations a = next_allocations b)

let suite =
  [
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "create rejects tiny" `Quick test_create_rejects_tiny;
    Alcotest.test_case "take free region" `Quick test_take_free_region;
    Alcotest.test_case "alloc in region" `Quick test_alloc_in_region;
    Alcotest.test_case "alloc region full" `Quick test_alloc_region_full;
    Alcotest.test_case "ids unique, null dead" `Quick test_ids_unique_and_null;
    Alcotest.test_case "release region" `Quick test_release_region;
    Alcotest.test_case "move survives release" `Quick test_move_object_survives_release;
    Alcotest.test_case "move rejects full dst" `Quick test_move_rejects_when_full;
    Alcotest.test_case "mark epochs" `Quick test_mark_epochs;
    Alcotest.test_case "purge unmarked" `Quick test_purge_unmarked;
    Alcotest.test_case "raw release + place" `Quick test_release_keep_objects_and_place;
    Alcotest.test_case "alloc reserve" `Quick test_alloc_reserve;
    Alcotest.test_case "reachable_from" `Quick test_reachable_from;
    Alcotest.test_case "regions in space" `Quick test_regions_in_space;
    QCheck_alcotest.to_alcotest prop_accounting;
    QCheck_alcotest.to_alcotest prop_sweep_matches_two_walks;
  ]
