(* Full mark-compact: dead objects purged, survivors densely re-placed,
   free pool restored, no headroom required. *)

module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Engine = Gcr_engine.Engine
module Gc_types = Gcr_gcs.Gc_types
module Full_compact = Gcr_gcs.Full_compact
module Worker_pool = Gcr_gcs.Worker_pool
module Prng = Gcr_util.Prng
module Obs = Gcr_obs.Obs

let check = Alcotest.check

(* Build a fragmented heap: objects scattered over many regions, a subset
   reachable from the roots.  Returns the ctx, engine, and the root list. *)
let build ~regions ~region_words ~objects ~live_every ~seed =
  let engine = Engine.create ~cpus:4 () in
  let heap =
    Heap.create ~obs:(Engine.obs engine) ~capacity_words:(regions * region_words) ~region_words
      ()
  in
  let ctx =
    Gc_types.make_ctx ~heap ~engine ~cost:Gcr_mach.Cost_model.default
      ~machine:Gcr_mach.Machine.default
  in
  let allocator = Allocator.create heap ~space:Region.Eden in
  Gcr_util.Vec.push ctx.Gc_types.allocators allocator;
  let prng = Prng.create seed in
  let roots = ref [] in
  let prev = ref Obj_model.null in
  for i = 0 to objects - 1 do
    let size = 4 + Prng.int prng 8 in
    match Allocator.alloc allocator ~size ~nfields:2 with
    | Allocator.Allocated { obj; _ } ->
        if i mod live_every = 0 then begin
          roots := obj :: !roots;
          (* chain some structure under the root *)
          Heap.set_field heap obj 0 !prev
        end;
        prev := obj
    | Allocator.Out_of_regions -> Alcotest.fail "test heap too small"
  done;
  (ctx.Gc_types.iter_roots := fun f -> List.iter f !roots);
  (ctx, engine, roots)

let run_compact ctx engine =
  let pool = Worker_pool.create ctx ~count:2 ~name:"compact-test" in
  let m = Engine.spawn engine ~kind:Engine.Mutator ~name:"driver" in
  let result = ref None in
  Engine.request_stop engine ~reason:"test" (fun () ->
      Full_compact.run ctx ~pool ~on_done:(fun r ->
          result := Some r;
          Engine.release_stop engine;
          Engine.exit_thread engine m));
  (match Engine.run engine () with
  | Engine.All_mutators_finished -> ()
  | Engine.Aborted reason -> Alcotest.failf "aborted: %s" reason);
  Option.get !result

let test_compacts () =
  let ctx, engine, roots =
    build ~regions:64 ~region_words:64 ~objects:400 ~live_every:5 ~seed:2
  in
  let heap = ctx.Gc_types.heap in
  let reachable_before = Heap.reachable_from heap !roots in
  let used_before = Heap.used_words heap in
  let result = run_compact ctx engine in
  (* survivors = exactly the reachable set *)
  check Alcotest.int "live objects = reachable set" (Hashtbl.length reachable_before)
    (Heap.live_objects heap);
  check Alcotest.int "marked = reachable" (Hashtbl.length reachable_before)
    result.Full_compact.objects_marked;
  Hashtbl.iter
    (fun id () -> check Alcotest.bool "survivor live" true (Heap.is_live heap id))
    reachable_before;
  (* garbage space reclaimed *)
  check Alcotest.bool "used shrank" true (Heap.used_words heap < used_before);
  check Alcotest.int "used = live exactly after compaction" (Heap.live_words_exact heap)
    (Heap.used_words heap);
  (* everything left is in old space *)
  Heap.iter_regions
    (fun r ->
      match r.Region.space with
      | Region.Free | Region.Old -> ()
      | Region.Eden | Region.Survivor -> Alcotest.fail "young region survived compaction")
    heap

let test_works_with_empty_pool () =
  (* Compaction needs no free headroom: fill every region first. *)
  let ctx, engine, _roots =
    build ~regions:16 ~region_words:64 ~objects:120 ~live_every:4 ~seed:3
  in
  let heap = ctx.Gc_types.heap in
  (* exhaust the pool with eden regions *)
  let rec drain () =
    match Heap.take_free_region heap ~space:Region.Eden with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.int "pool empty" 0 (Heap.free_regions heap);
  let _ = run_compact ctx engine in
  check Alcotest.bool "pool replenished" true (Heap.free_regions heap > 0)

let test_idempotent_when_all_live () =
  let ctx, engine, _roots =
    build ~regions:32 ~region_words:64 ~objects:100 ~live_every:1 ~seed:4
  in
  let heap = ctx.Gc_types.heap in
  let live_before = Heap.live_objects heap in
  let _ = run_compact ctx engine in
  check Alcotest.int "nothing reclaimed" live_before (Heap.live_objects heap)

(* Survivors that do not fit.  Compaction always has room of its own, so
   a release-log hook empties the free pool as soon as compaction takes
   its first destination region: every survivor after the ones that fit
   there takes the refill path and fails.  The OOM reasons, the
   destination's contents and the spine's fingerprint are pinned to what
   the per-object placement loop gives. *)
let test_survivors_do_not_fit () =
  let ctx, engine, roots =
    build ~regions:16 ~region_words:64 ~objects:60 ~live_every:3 ~seed:5
  in
  let heap = ctx.Gc_types.heap in
  (* compaction's order: region index, then each region's object order *)
  let reachable = Heap.reachable_from heap !roots in
  let survivors = ref [] in
  Heap.iter_regions
    (fun r ->
      Heap.iter_resident_objects heap r (fun id ->
          if Hashtbl.mem reachable id then survivors := id :: !survivors))
    heap;
  let survivors = List.rev !survivors in
  let rec fitting used = function
    | id :: rest when used + Heap.obj_size heap id <= Heap.region_words heap ->
        id :: fitting (used + Heap.obj_size heap id) rest
    | _ -> []
  in
  let fits = fitting 0 survivors in
  let obs = Engine.obs engine in
  let reasons = ref [] in
  Obs.subscribe obs
    {
      Obs.sub_name = "ooms";
      on_event =
        (fun ~time:_ ~code ~a ~b:_ ~c:_ ->
          if code = Gcr_obs.Event.code_oom then reasons := Obs.string_of_id obs a :: !reasons);
    };
  let destination = ref None in
  let saved_log = !Heap.release_log in
  (Heap.release_log :=
     fun index tag ->
       if tag = "take" && Option.is_none !destination then begin
         destination := Some index;
         while Option.is_some (Heap.take_free_region heap ~space:Region.Old) do
           ()
         done
       end);
  let pool = Worker_pool.create ctx ~count:2 ~name:"compact-test" in
  let m = Engine.spawn engine ~kind:Engine.Mutator ~name:"mutator" in
  Engine.request_stop engine ~reason:"test" (fun () ->
      Full_compact.run ctx ~pool ~on_done:(fun _ ->
          Engine.release_stop engine;
          Engine.exit_thread engine m));
  let outcome =
    Fun.protect ~finally:(fun () -> Heap.release_log := saved_log) (Engine.run engine)
  in
  (match outcome with
  | Engine.Aborted reason ->
      check Alcotest.string "abort reason"
        "OutOfMemoryError: full compaction found no free region" reason
  | Engine.All_mutators_finished -> Alcotest.fail "compaction placed every survivor");
  let dst = Heap.region heap (Option.get !destination) in
  check (Alcotest.list Alcotest.int) "destination holds the prefix that fits" fits
    (List.rev (Gcr_util.Ivec.fold (fun acc id -> id :: acc) [] dst.Region.objects));
  (* every survivor fits one compaction slice, and each one after the
     prefix fails twice: no region to refill from, then nowhere to go *)
  check Alcotest.bool "one slice" true (List.length survivors < 64);
  let reasons = List.rev !reasons in
  check Alcotest.int "OOM events"
    (2 * (List.length survivors - List.length fits))
    (List.length reasons);
  List.iteri
    (fun i reason ->
      check Alcotest.string "refill, then retry"
        (if i mod 2 = 0 then "full compaction found no free region"
         else "full compaction could not place a survivor")
        reason)
    reasons;
  (* recorded with the per-object placement loop that [Heap.place_run]
     replaced: 60 OOMs, 30 region transitions *)
  let per_object_path =
    [ 0; 3999; 0; 3999; 2999; 1000; 0; 0; 0; 0; 0; 0; 2999; 1000; 0; 0; 0; 0; 0; 0; 2999;
      1; 0; 0; 0; 0; 0; 0; 0; 2; 0; 0; 2; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
      0; 0; 0; 60; 16; 64; 30; 0; 16; 16; 95984; 0; 0; 0; 0; 0; 0; 0; 0 ]
  in
  check (Alcotest.list Alcotest.int) "spine fingerprint" per_object_path
    (Obs.fingerprint obs ~now:(Engine.now engine))

let suite =
  [
    Alcotest.test_case "compacts" `Quick test_compacts;
    Alcotest.test_case "works with empty pool" `Quick test_works_with_empty_pool;
    Alcotest.test_case "idempotent when all live" `Quick test_idempotent_when_all_live;
    Alcotest.test_case "survivors that do not fit" `Quick test_survivors_do_not_fit;
  ]
