(* The shared young-generation scavenge: survivors copied, garbage
   reclaimed, aging and promotion, remembered-set roots. *)

module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Engine = Gcr_engine.Engine
module Gc_types = Gcr_gcs.Gc_types
module Scavenge = Gcr_gcs.Scavenge
module Remset = Gcr_gcs.Remset
module Worker_pool = Gcr_gcs.Worker_pool

let check = Alcotest.check

let setup () =
  let heap = Heap.create ~capacity_words:(64 * 64) ~region_words:64 () in
  let engine = Engine.create ~cpus:4 () in
  let ctx =
    Gc_types.make_ctx ~heap ~engine ~cost:Gcr_mach.Cost_model.default
      ~machine:Gcr_mach.Machine.default
  in
  (ctx, heap, engine)

let set_roots ctx ids = ctx.Gc_types.iter_roots := fun f -> List.iter f ids

let alloc_eden ctx ~nfields =
  let heap = ctx.Gc_types.heap in
  let allocator = Allocator.create heap ~space:Region.Eden in
  Gcr_util.Vec.push ctx.Gc_types.allocators allocator;
  fun () ->
    match Allocator.alloc allocator ~size:(nfields + 2) ~nfields with
    | Allocator.Allocated { obj; _ } -> obj
    | Allocator.Out_of_regions -> Alcotest.fail "test heap too small"

let run_scavenge ctx engine ~remset ~tenure_age =
  let pool = Worker_pool.create ctx ~count:2 ~name:"scavenge-test" in
  let m = Engine.spawn engine ~kind:Engine.Mutator ~name:"driver" in
  let result = ref None in
  Engine.request_stop engine ~reason:"young" (fun () ->
      Scavenge.run ctx ~pool ~remset ~tenure_age
        ~on_done:(fun r ->
          result := Some r;
          Engine.release_stop engine;
          Engine.exit_thread engine m));
  (match Engine.run engine () with
  | Engine.All_mutators_finished -> ()
  | Engine.Aborted reason -> Alcotest.failf "aborted: %s" reason);
  Option.get !result

let space_of heap id = Heap.obj_space heap id

let test_survivors_copied_garbage_dies () =
  let ctx, heap, engine = setup () in
  let alloc = alloc_eden ctx ~nfields:1 in
  let live = alloc () in
  let child = alloc () in
  let dead = alloc () in
  Heap.set_field heap live 0 child;
  set_roots ctx [ live ];
  let remset = Remset.create heap in
  let result = run_scavenge ctx engine ~remset ~tenure_age:2 in
  check Alcotest.bool "no promotion failure" false result.Scavenge.promo_failed;
  check Alcotest.int "two survivors" 2 result.Scavenge.objects_copied;
  check Alcotest.bool "live survives" true (Heap.is_live heap live);
  check Alcotest.bool "child survives" true (Heap.is_live heap child);
  check Alcotest.bool "garbage dies" false (Heap.is_live heap dead);
  check Alcotest.bool "live now in survivor space" true
    (Region.space_equal (space_of heap live) Region.Survivor);
  check Alcotest.int "aged" 1 (Heap.obj_age heap live)

let test_promotion_by_age () =
  let ctx, heap, engine = setup () in
  let alloc = alloc_eden ctx ~nfields:0 in
  let elder = alloc () in
  Heap.set_obj_age heap elder 5;
  let young = alloc () in
  set_roots ctx [ elder; young ];
  let remset = Remset.create heap in
  let result = run_scavenge ctx engine ~remset ~tenure_age:2 in
  check Alcotest.bool "elder promoted to old" true
    (Region.space_equal (space_of heap elder) Region.Old);
  check Alcotest.bool "young to survivor" true
    (Region.space_equal (space_of heap young) Region.Survivor);
  (* promoted leaf objects (no fields) are not remset candidates *)
  check Alcotest.(list int) "no promoted-with-fields" [] result.Scavenge.promoted_with_fields

let test_remset_objects_are_roots () =
  let ctx, heap, engine = setup () in
  let alloc = alloc_eden ctx ~nfields:0 in
  let old_region = Option.get (Heap.take_free_region heap ~space:Region.Old) in
  let old_holder = Heap.alloc_in_region heap old_region ~size:4 ~nfields:1 in
  let young = alloc () in
  Heap.set_field heap old_holder 0 young;
  (* young is reachable ONLY through the old object *)
  set_roots ctx [];
  let remset = Remset.create heap in
  Remset.remember remset old_holder;
  let _ = run_scavenge ctx engine ~remset ~tenure_age:2 in
  check Alcotest.bool "young survived via remset" true (Heap.is_live heap young)

let test_without_remset_young_dies () =
  let ctx, heap, engine = setup () in
  let alloc = alloc_eden ctx ~nfields:0 in
  let old_region = Option.get (Heap.take_free_region heap ~space:Region.Old) in
  let old_holder = Heap.alloc_in_region heap old_region ~size:4 ~nfields:1 in
  let young = alloc () in
  Heap.set_field heap old_holder 0 young;
  set_roots ctx [];
  let remset = Remset.create heap in
  let _ = run_scavenge ctx engine ~remset ~tenure_age:2 in
  (* documents WHY the remembered set is needed *)
  check Alcotest.bool "young wrongly dead without remset entry" false
    (Heap.is_live heap young)

let test_promo_failure_flagged () =
  (* tiny heap: survivors cannot be copied anywhere *)
  let heap = Heap.create ~capacity_words:(3 * 64) ~region_words:64 () in
  let engine = Engine.create ~cpus:2 () in
  let ctx =
    Gc_types.make_ctx ~heap ~engine ~cost:Gcr_mach.Cost_model.default
      ~machine:Gcr_mach.Machine.default
  in
  let allocator = Allocator.create heap ~space:Region.Eden in
  Gcr_util.Vec.push ctx.Gc_types.allocators allocator;
  let roots = ref [] in
  (* fill all three regions with live data *)
  (try
     while true do
       match Allocator.alloc allocator ~size:8 ~nfields:0 with
       | Allocator.Allocated { obj; _ } -> roots := obj :: !roots
       | Allocator.Out_of_regions -> raise Exit
     done
   with Exit -> ());
  (ctx.Gc_types.iter_roots := fun f -> List.iter f !roots);
  let remset = Remset.create heap in
  let result = run_scavenge ctx engine ~remset ~tenure_age:2 in
  check Alcotest.bool "promotion failure reported" true result.Scavenge.promo_failed;
  (* heap must still be consistent: all roots alive *)
  List.iter
    (fun id -> check Alcotest.bool "root intact after failure" true (Heap.is_live heap id))
    !roots

let suite =
  [
    Alcotest.test_case "survivors copied, garbage dies" `Quick
      test_survivors_copied_garbage_dies;
    Alcotest.test_case "promotion by age" `Quick test_promotion_by_age;
    Alcotest.test_case "remset objects are roots" `Quick test_remset_objects_are_roots;
    Alcotest.test_case "without remset young dies" `Quick test_without_remset_young_dies;
    Alcotest.test_case "promotion failure flagged" `Quick test_promo_failure_flagged;
  ]
