(* Priority-queue ordering, FIFO tie-breaking, and a qcheck sort test. *)

module Binary_heap = Gcr_util.Binary_heap

let check = Alcotest.check

let pop heap =
  let v = Binary_heap.pop_min_value heap in
  (Binary_heap.popped_priority heap, v)

let drain heap =
  let rec loop acc =
    if Binary_heap.is_empty heap then List.rev acc else loop (pop heap :: acc)
  in
  loop []

let test_ordering () =
  let h = Binary_heap.create () in
  List.iter (fun p -> Binary_heap.add h ~priority:p p) [ 5; 1; 4; 2; 3 ];
  check Alcotest.(list (pair int int)) "sorted"
    [ (1, 1); (2, 2); (3, 3); (4, 4); (5, 5) ]
    (drain h)

let test_fifo_ties () =
  let h = Binary_heap.create () in
  Binary_heap.add h ~priority:7 301;
  Binary_heap.add h ~priority:7 102;
  Binary_heap.add h ~priority:7 203;
  check
    Alcotest.(list (pair int int))
    "insertion order preserved on ties"
    [ (7, 301); (7, 102); (7, 203) ]
    (drain h)

let test_min_peek () =
  let h = Binary_heap.create () in
  check Alcotest.bool "empty" true (Binary_heap.is_empty h);
  Binary_heap.add h ~priority:3 30;
  Binary_heap.add h ~priority:1 10;
  check Alcotest.int "min_priority" 1 (Binary_heap.min_priority h);
  check Alcotest.int "length unchanged" 2 (Binary_heap.length h);
  check Alcotest.(pair int int) "the peeked entry pops first" (1, 10) (pop h)

let test_interleaved () =
  let h = Binary_heap.create () in
  Binary_heap.add h ~priority:10 10;
  Binary_heap.add h ~priority:5 5;
  check Alcotest.(pair int int) "pop min" (5, 5) (pop h);
  Binary_heap.add h ~priority:1 1;
  check Alcotest.(pair int int) "pop new min" (1, 1) (pop h);
  check Alcotest.(pair int int) "pop rest" (10, 10) (pop h);
  check Alcotest.bool "empty" true (Binary_heap.is_empty h)

let test_clear () =
  let h = Binary_heap.create () in
  Binary_heap.add h ~priority:1 0;
  Binary_heap.clear h;
  check Alcotest.bool "cleared" true (Binary_heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains priorities in sorted order" ~count:300
    QCheck.(list small_int)
    (fun priorities ->
      let h = Binary_heap.create () in
      List.iter (fun p -> Binary_heap.add h ~priority:p p) priorities;
      let drained = List.map fst (drain h) in
      drained = List.sort compare priorities)

let prop_stable_within_priority =
  QCheck.Test.make ~name:"equal priorities pop in insertion order" ~count:200
    QCheck.(list (int_bound 3))
    (fun priorities ->
      let h = Binary_heap.create () in
      List.iteri (fun i p -> Binary_heap.add h ~priority:p i) priorities;
      (* within each priority class, insertion indexes must increase *)
      let by_prio = Hashtbl.create 8 in
      List.for_all
        (fun (p, i) ->
          let last = Option.value (Hashtbl.find_opt by_prio p) ~default:(-1) in
          Hashtbl.replace by_prio p i;
          i > last)
        (drain h))

(* Model test: under arbitrary add/pop interleavings the heap must agree
   with a reference model — a sorted list of (priority, insertion index)
   entries — at every pop.  FIFO among equal priorities falls out of the
   model's lexicographic order on (priority, insertion index).  This is the
   determinism contract the engine's event loop relies on; the SoA rewrite
   must preserve it exactly. *)
let prop_model_interleaved =
  (* ops: Some p = add with priority p, None = pop *)
  QCheck.Test.make ~name:"add/pop interleavings match a sorted-list model" ~count:500
    QCheck.(list (option (int_bound 7)))
    (fun ops ->
      let h = Binary_heap.create () in
      let model = ref [] (* sorted (priority, seq) list *) in
      let next_seq = ref 0 in
      let insert entry =
        let rec go = function
          | [] -> [ entry ]
          | e :: rest -> if entry < e then entry :: e :: rest else e :: go rest
        in
        model := go !model
      in
      List.for_all
        (fun op ->
          match op with
          | Some p ->
              let s = !next_seq in
              incr next_seq;
              Binary_heap.add h ~priority:p s;
              insert (p, s);
              Binary_heap.length h = List.length !model
          | None -> (
              match !model with
              | [] -> Binary_heap.is_empty h
              | (mp, ms) :: rest ->
                  model := rest;
                  (not (Binary_heap.is_empty h)) && pop h = (mp, ms)))
        ops)

(* The peek, the pop and the out-of-band priority must agree, and every
   read of an empty heap raises. *)
let test_pop_min_agrees () =
  let h = Binary_heap.create () in
  List.iter (fun p -> Binary_heap.add h ~priority:p (p * 10)) [ 4; 2; 9; 2; 7 ];
  check Alcotest.int "min_priority" 2 (Binary_heap.min_priority h);
  check Alcotest.int "first of the tied pair" 20 (Binary_heap.pop_min_value h);
  check Alcotest.int "pop_min_value parks the priority" 2 (Binary_heap.popped_priority h);
  check Alcotest.int "second of the tied pair" 20 (Binary_heap.pop_min_value h);
  check Alcotest.int "popped_priority after the second pop" 2
    (Binary_heap.popped_priority h);
  check Alcotest.int "next priority" 4 (Binary_heap.min_priority h);
  Alcotest.check_raises "empty min_priority"
    (Invalid_argument "Binary_heap.min_priority: empty") (fun () ->
      ignore (Binary_heap.min_priority (Binary_heap.create ())));
  Alcotest.check_raises "empty pop_min_value"
    (Invalid_argument "Binary_heap.pop_min_value: empty") (fun () ->
      ignore (Binary_heap.pop_min_value (Binary_heap.create ())))

let test_fifo_across_clear () =
  let h = Binary_heap.create () in
  Binary_heap.add h ~priority:1 1;
  Binary_heap.clear h;
  (* the sequence counter survives clear, so FIFO keeps holding *)
  Binary_heap.add h ~priority:5 20;
  Binary_heap.add h ~priority:5 10;
  check Alcotest.(list (pair int int)) "FIFO after clear" [ (5, 20); (5, 10) ] (drain h)

(* A reset heap must be indistinguishable from a fresh one: same pops for
   the same adds, and no popped priority left over. *)
let test_reset_rewinds () =
  let script h =
    List.iter (fun (p, v) -> Binary_heap.add h ~priority:p v) [ (3, 1); (1, 2); (3, 3); (1, 4) ];
    let first = pop h in
    Binary_heap.add h ~priority:1 5;
    first :: drain h
  in
  let used = Binary_heap.create () in
  for i = 0 to 40 do
    Binary_heap.add used ~priority:(i mod 3) i
  done;
  ignore (pop used);
  Binary_heap.reset used;
  check Alcotest.bool "empty after reset" true (Binary_heap.is_empty used);
  check Alcotest.int "popped priority rewound" 0 (Binary_heap.popped_priority used);
  check
    Alcotest.(list (pair int int))
    "same pops as a fresh heap"
    (script (Binary_heap.create ()))
    (script used)

let suite =
  [
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "pop_min/min_priority" `Quick test_pop_min_agrees;
    Alcotest.test_case "FIFO across clear" `Quick test_fifo_across_clear;
    Alcotest.test_case "reset rewinds the sequence" `Quick test_reset_rewinds;
    QCheck_alcotest.to_alcotest prop_model_interleaved;
    Alcotest.test_case "FIFO on ties" `Quick test_fifo_ties;
    Alcotest.test_case "min peek" `Quick test_min_peek;
    Alcotest.test_case "interleaved add/pop" `Quick test_interleaved;
    Alcotest.test_case "clear" `Quick test_clear;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_stable_within_priority;
  ]
