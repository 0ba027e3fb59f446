module Machine = Gcr_mach.Machine
module Cost_model = Gcr_mach.Cost_model
module Registry = Gcr_gcs.Registry
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Controller = Gcr_policy.Controller

type cell = {
  index : int;
  invocation : int;
  bench : string;
  gc : Registry.kind;
  factor : float;
  controller : Controller.spec;
  config : Run.config;
}

type group = {
  invocation : int;
  spec : Spec.t;
  seed : int;
  cells : cell list;
}

type t = { groups : group list; n_cells : int }

let groups t = t.groups

let n_cells t = t.n_cells

let cells t = List.concat_map (fun g -> g.cells) t.groups

let heap_words ~region_words ~minheap ~factor =
  let words = int_of_float (Float.round (factor *. float_of_int minheap)) in
  (* round up to whole regions *)
  (words + region_words - 1) / region_words * region_words

let seed_of ~base_seed ~invocation = base_seed + (1000 * (invocation + 1))

exception Unrunnable of string

let cell_config ~machine ~cost ~region_words ~minheap ~spec ~seed ~gc ~factor ~controller =
  let heap_words =
    match gc with
    | Registry.Epsilon -> machine.Machine.memory_words
    | _ -> heap_words ~region_words ~minheap ~factor
  in
  (* the heap cannot be built below two regions *)
  if heap_words < 2 * region_words then
    raise
      (Unrunnable
         (Printf.sprintf
            "%s at heap factor %g: a %d-word heap is below the two-region minimum of %d words"
            spec.Spec.name factor heap_words (2 * region_words)));
  {
    Run.spec;
    gc;
    heap_words;
    machine;
    cost;
    seed;
    region_words;
    max_events = None;
    make_collector = None;
    tape = Run.Tape_off;
    controller;
  }

(* --- Cost model for the size-aware fabric scheduler. ---

   A unitless estimate of how long a cell takes to simulate; only the
   relative order of group costs matters.  The dominant term is workload
   volume (threads × packets — simulation steps scale with it); tight
   heaps add collection work on top, roughly in proportion to how close
   the heap sits to the minimum (factor 1.3 reclaims far more often than
   factor 6.0), hence the [1 + 2/factor] weight.  Epsilon never collects:
   weight 1.  Deliberately crude — the scheduler only needs "this group
   is several times that one": every idle worker takes the next ready
   group, so a mis-estimate costs at most one group's runtime at the
   tail. *)

let spec_weight (spec : Spec.t) =
  float_of_int (spec.Spec.mutator_threads * spec.Spec.packets_per_thread)

let cell_cost c =
  let gc_weight =
    match c.gc with
    | Registry.Epsilon -> 1.0
    | _ -> if c.factor > 0.0 then 1.0 +. (2.0 /. c.factor) else 1.0
  in
  spec_weight c.config.Run.spec *. gc_weight

let group_cost g = List.fold_left (fun acc c -> acc +. cell_cost c) 0.0 g.cells

(* A min-heap search is a chain of runs of one workload, each a bare
   workload run as far as this model goes: weight it as one. *)
let search_cost spec = spec_weight spec

(* Epsilon participates implicitly even if not requested; it leads the
   cell order exactly as the serial harness always emitted it. *)
let with_epsilon gcs =
  if List.mem Registry.Epsilon gcs then gcs else Registry.Epsilon :: gcs

let plan ?(controllers = [ Controller.fixed ]) ~invocations ~base_seed ~machine ~cost
    ~region_words ~heap_factors ~minheap ~specs ~gcs () =
  let gcs = with_epsilon gcs in
  let controllers = if controllers = [] then [ Controller.fixed ] else controllers in
  let index = ref 0 in
  let cell ~invocation ~spec ~seed ~minheap ~gc ~factor ~controller =
    let bench = spec.Spec.name in
    let config =
      cell_config ~machine ~cost ~region_words ~minheap ~spec ~seed ~gc ~factor ~controller
    in
    let c = { index = !index; invocation; bench; gc; factor; controller; config } in
    incr index;
    c
  in
  let groups = ref [] in
  (* Interleave configurations across invocations (§IV-A d): the outer
     walk is invocation-major, so consecutive groups belong to different
     grid rows and system drift spreads evenly over the whole grid. *)
  for invocation = 0 to invocations - 1 do
    let seed = seed_of ~base_seed ~invocation in
    List.iter
      (fun spec ->
        let minheap = minheap ~bench:spec.Spec.name in
        let cells =
          List.concat_map
            (fun gc ->
              match gc with
              | Registry.Epsilon ->
                  (* no heap pressure, nothing for a controller to move:
                     one cell, always [Fixed] *)
                  [
                    cell ~invocation ~spec ~seed ~minheap ~gc ~factor:0.0
                      ~controller:Controller.fixed;
                  ]
              | _ ->
                  List.concat_map
                    (fun factor ->
                      List.map
                        (fun controller ->
                          cell ~invocation ~spec ~seed ~minheap ~gc ~factor ~controller)
                        controllers)
                    heap_factors)
            gcs
        in
        groups := { invocation; spec; seed; cells } :: !groups)
      specs
  done;
  { groups = List.rev !groups; n_cells = !index }
