(* Tracer: exact reachability, filters, incremental draining, SATB-style
   root publication mid-trace. *)

module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Gc_types = Gcr_gcs.Gc_types
module Tracer = Gcr_gcs.Tracer
module Engine = Gcr_engine.Engine
module Prng = Gcr_util.Prng

let check = Alcotest.check

let make_ctx ?(regions = 32) ?(region_words = 64) () =
  let heap = Heap.create ~capacity_words:(regions * region_words) ~region_words () in
  let engine = Engine.create ~cpus:4 () in
  Gc_types.make_ctx ~heap ~engine ~cost:Gcr_mach.Cost_model.default
    ~machine:Gcr_mach.Machine.default

let alloc ctx region ~nfields =
  let id = Heap.alloc_in_region ctx.Gc_types.heap region ~size:(nfields + 2) ~nfields in
  if Obj_model.is_null id then failwith "alloc: region full";
  id

(* Build a random object graph; return the object ids. *)
let build_graph ctx ~objects ~edges ~seed =
  let heap = ctx.Gc_types.heap in
  let region = Option.get (Heap.take_free_region heap ~space:Region.Eden) in
  let region = ref region in
  let prng = Prng.create seed in
  let objs =
    Array.init objects (fun _ ->
        let nfields = 3 in
        let id = Heap.alloc_in_region heap !region ~size:(nfields + 2) ~nfields in
        if not (Obj_model.is_null id) then id
        else begin
          region := Option.get (Heap.take_free_region heap ~space:Region.Eden);
          let id = Heap.alloc_in_region heap !region ~size:(nfields + 2) ~nfields in
          if Obj_model.is_null id then failwith "build_graph: fresh region full";
          id
        end)
  in
  for _ = 1 to edges do
    let src = objs.(Prng.int prng objects) in
    let dst = objs.(Prng.int prng objects) in
    Heap.set_field heap src (Prng.int prng 3) dst
  done;
  objs

let drain_fully tracer =
  let total = ref 0 in
  let rec loop () =
    let cost = Tracer.drain tracer ~budget:7 in
    if cost > 0 || Tracer.pending tracer then begin
      total := !total + cost;
      loop ()
    end
  in
  loop ();
  !total

let test_marks_exactly_reachable () =
  let ctx = make_ctx () in
  let heap = ctx.Gc_types.heap in
  let objs = build_graph ctx ~objects:100 ~edges:150 ~seed:3 in
  let roots = [ objs.(0); objs.(50) ] in
  ignore (Heap.begin_mark_epoch heap);
  let tracer =
    Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:false
      ~update_region_live:false ()
  in
  Tracer.add_roots tracer roots;
  ignore (drain_fully tracer);
  let expected = Heap.reachable_from heap roots in
  let marked_count = ref 0 in
  Array.iter
    (fun o ->
      let marked = Heap.is_marked heap o in
      if marked then incr marked_count;
      check Alcotest.bool
        (Printf.sprintf "object %d marked iff reachable" o)
        (Hashtbl.mem expected o) marked)
    objs;
  check Alcotest.int "tracer count agrees" !marked_count (Tracer.objects_marked tracer)

let test_cost_positive () =
  let ctx = make_ctx () in
  let heap = ctx.Gc_types.heap in
  let objs = build_graph ctx ~objects:20 ~edges:10 ~seed:4 in
  ignore (Heap.begin_mark_epoch heap);
  let tracer =
    Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:false
      ~update_region_live:false ()
  in
  Tracer.add_root tracer objs.(0);
  let cost = drain_fully tracer in
  check Alcotest.bool "positive cost" true (cost > 0);
  check Alcotest.bool "words counted" true (Tracer.words_marked tracer > 0)

let test_filter_bounds_trace () =
  let ctx = make_ctx () in
  let heap = ctx.Gc_types.heap in
  let eden = Option.get (Heap.take_free_region heap ~space:Region.Eden) in
  let old = Option.get (Heap.take_free_region heap ~space:Region.Old) in
  let young = alloc ctx eden ~nfields:1 in
  let old_obj = Heap.alloc_in_region heap old ~size:3 ~nfields:1 in
  let young2 = alloc ctx eden ~nfields:1 in
  (* young -> old -> young2: the young-only trace must not cross the old
     object *)
  Heap.set_field heap young 0 old_obj;
  Heap.set_field heap old_obj 0 young2;
  ignore (Heap.begin_mark_epoch heap);
  let is_young id = Region.space_equal (Heap.obj_space heap id) Region.Eden in
  let tracer =
    Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:false
      ~update_region_live:false ~should_visit:is_young ()
  in
  Tracer.add_root tracer young;
  ignore (drain_fully tracer);
  check Alcotest.bool "young marked" true (Heap.is_marked heap young);
  check Alcotest.bool "old not marked" false (Heap.is_marked heap old_obj);
  check Alcotest.bool "young2 not reached through old" false (Heap.is_marked heap young2)

let test_on_mark_called_once () =
  let ctx = make_ctx () in
  let heap = ctx.Gc_types.heap in
  let objs = build_graph ctx ~objects:50 ~edges:200 ~seed:5 in
  ignore (Heap.begin_mark_epoch heap);
  let calls = Hashtbl.create 64 in
  let tracer =
    Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:false ~update_region_live:false
      ~on_mark:(fun id ->
        Hashtbl.replace calls id (1 + Option.value ~default:0 (Hashtbl.find_opt calls id));
        0)
      ()
  in
  Tracer.add_root tracer objs.(0);
  ignore (drain_fully tracer);
  Hashtbl.iter (fun id n -> check Alcotest.int (Printf.sprintf "obj %d once" id) 1 n) calls

let test_roots_added_mid_trace () =
  (* SATB behaviour: publishing a root while draining still marks it. *)
  let ctx = make_ctx () in
  let heap = ctx.Gc_types.heap in
  let objs = build_graph ctx ~objects:30 ~edges:0 ~seed:6 in
  ignore (Heap.begin_mark_epoch heap);
  let tracer =
    Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:false
      ~update_region_live:false ()
  in
  Tracer.add_root tracer objs.(0);
  ignore (Tracer.drain tracer ~budget:1);
  Tracer.add_root tracer objs.(29);
  ignore (drain_fully tracer);
  check Alcotest.bool "late root marked" true (Heap.is_marked heap objs.(29))

let test_region_live_accounting () =
  let ctx = make_ctx () in
  let heap = ctx.Gc_types.heap in
  let region = Option.get (Heap.take_free_region heap ~space:Region.Eden) in
  let a = alloc ctx region ~nfields:1 in
  let b = alloc ctx region ~nfields:1 in
  let _dead = alloc ctx region ~nfields:1 in
  Heap.set_field heap a 0 b;
  ignore (Heap.begin_mark_epoch heap);
  Heap.iter_regions (fun r -> r.Region.live_words <- 0) heap;
  let tracer =
    Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:false ~update_region_live:true ()
  in
  Tracer.add_root tracer a;
  ignore (drain_fully tracer);
  check Alcotest.int "live words = a + b"
    (Heap.obj_size heap a + Heap.obj_size heap b)
    region.Region.live_words

let test_dead_roots_ignored () =
  let ctx = make_ctx () in
  let heap = ctx.Gc_types.heap in
  ignore (Heap.begin_mark_epoch heap);
  let tracer =
    Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:false
      ~update_region_live:false ()
  in
  Tracer.add_root tracer Obj_model.null;
  Tracer.add_root tracer 424242;
  check Alcotest.bool "nothing pending" false (Tracer.pending tracer);
  check Alcotest.int "zero cost" 0 (Tracer.drain tracer ~budget:10)

let prop_trace_equals_bfs =
  QCheck.Test.make ~name:"tracer marks exactly the BFS-reachable set" ~count:60
    QCheck.(pair small_int (int_range 0 300))
    (fun (seed, edges) ->
      let ctx = make_ctx ~regions:64 () in
      let heap = ctx.Gc_types.heap in
      let objs = build_graph ctx ~objects:80 ~edges ~seed in
      let roots = [ objs.(seed mod 80) ] in
      ignore (Heap.begin_mark_epoch heap);
      let tracer =
        Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:false
          ~update_region_live:false ()
      in
      Tracer.add_roots tracer roots;
      ignore (drain_fully tracer);
      let expected = Heap.reachable_from heap roots in
      Array.for_all (fun o -> Heap.is_marked heap o = Hashtbl.mem expected o) objs)

(* One slice-by-slice trace over a fresh graph: whether it marked exactly
   the reachable set, the slice costs, the mark bits, the counters and the
   per-region live words. *)
let sliced_trace ~stack ~use_scratch ~update_region_live ~filtered ~seed ~edges =
  let ctx = make_ctx ~regions:64 () in
  let heap = ctx.Gc_types.heap in
  let objs = build_graph ctx ~objects:80 ~edges ~seed in
  let root = objs.(seed mod 80) in
  (* before the trace's epoch: [reachable_from] uses the scratch slot *)
  let reachable = Heap.reachable_from heap [ root ] in
  ignore (if use_scratch then Heap.begin_scratch_epoch heap else Heap.begin_mark_epoch heap);
  Heap.iter_regions (fun r -> r.Region.live_words <- 0) heap;
  let tracer =
    if filtered then
      Tracer.create ctx ~stack ~use_scratch ~update_region_live
        ~should_visit:(fun _ -> true)
        ~on_mark:(fun _ -> 0)
        ()
    else Tracer.create ctx ~stack ~use_scratch ~update_region_live ()
  in
  Tracer.add_root tracer root;
  let costs = ref [] in
  while Tracer.pending tracer do
    costs := Tracer.drain tracer ~budget:7 :: !costs
  done;
  let marked id = if use_scratch then Heap.is_scratch_marked heap id else Heap.is_marked heap id in
  let marks = Array.map marked objs in
  ( marks = Array.map (Hashtbl.mem reachable) objs,
    List.rev !costs,
    marks,
    (Tracer.objects_marked tracer, Tracer.words_marked tracer, Tracer.edges_seen tracer),
    List.map (fun r -> r.Region.live_words) (Heap.regions_in_space heap Region.Eden) )

(* Omitting both filters skips their calls in the mark loop; passing the
   constant filters takes the filtered path.  Both must mark exactly the
   reachable objects at the same cost, slice by slice, in either mark slot
   and with or without region liveness.  A reused stack, whether it still
   holds an abandoned trace's entries or a finished trace drained it, must
   give what a fresh stack gives. *)
let prop_unfiltered_matches_filtered =
  QCheck.Test.make ~name:"unfiltered trace equals a constant-filter trace" ~count:40
    QCheck.(quad small_int (int_range 0 300) bool bool)
    (fun (seed, edges, use_scratch, update_region_live) ->
      let trace ?(stack = Gcr_util.Ivec.create ()) filtered =
        sliced_trace ~stack ~use_scratch ~update_region_live ~filtered ~seed ~edges
      in
      let fresh = trace false in
      let reused =
        let stack = Gcr_util.Ivec.create () in
        (* an abandoned trace over another graph leaves entries behind *)
        for i = 1 to 5 do
          Gcr_util.Ivec.push stack (i * 7)
        done;
        let first = trace ~stack (seed mod 2 = 0) in
        let second = trace ~stack (seed mod 2 = 1) in
        (first, second)
      in
      let exact, _, _, _, _ = fresh in
      exact && fresh = trace true && reused = (fresh, fresh))

let suite =
  [
    Alcotest.test_case "marks exactly reachable" `Quick test_marks_exactly_reachable;
    Alcotest.test_case "cost positive" `Quick test_cost_positive;
    Alcotest.test_case "filter bounds trace" `Quick test_filter_bounds_trace;
    Alcotest.test_case "on_mark called once" `Quick test_on_mark_called_once;
    Alcotest.test_case "roots added mid-trace" `Quick test_roots_added_mid_trace;
    Alcotest.test_case "region live accounting" `Quick test_region_live_accounting;
    Alcotest.test_case "dead roots ignored" `Quick test_dead_roots_ignored;
    QCheck_alcotest.to_alcotest prop_trace_equals_bfs;
    QCheck_alcotest.to_alcotest prop_unfiltered_matches_filtered;
  ]
