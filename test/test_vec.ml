(* Vec unit tests plus a qcheck model test against plain lists. *)

module Vec = Gcr_util.Vec

let check = Alcotest.check

let of_list xs =
  let v = Vec.create () in
  List.iter (Vec.push v) xs;
  v

let test_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  for i = 0 to 99 do
    check Alcotest.int "get" (i * 2) (Vec.get v i)
  done

let test_set () =
  let v = of_list [ 1; 2; 3 ] in
  Vec.set v 1 42;
  check Alcotest.(list int) "set" [ 1; 42; 3 ] (Vec.to_list v)

let test_bounds () =
  let v = of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      Vec.set v (-1) 0)

let test_clear () =
  let v = of_list [ 1; 2; 3 ] in
  Vec.clear v;
  check Alcotest.bool "empty" true (Vec.is_empty v);
  Vec.push v 7;
  check Alcotest.(list int) "reusable" [ 7 ] (Vec.to_list v)

let test_iter_fold () =
  let v = of_list [ 1; 2; 3; 4 ] in
  check Alcotest.int "fold sum" 10 (Vec.fold ( + ) 0 v);
  let collected = ref [] in
  Vec.iter (fun x -> collected := x :: !collected) v;
  check Alcotest.(list int) "iter order" [ 1; 2; 3; 4 ] (List.rev !collected)

(* Clearing must not retain references to removed elements: a dead
   element only reachable through a freed slot must be collected. *)
let assert_collected name removed =
  Gc.full_major ();
  check Alcotest.bool name false
    (List.exists (fun w -> Weak.check w 0) removed)

let weak_of x =
  let w = Weak.create 1 in
  Weak.set w 0 (Some x);
  w

let test_clear_releases () =
  let v = Vec.create () in
  for i = 0 to 9 do
    Vec.push v (ref i)
  done;
  (* slot 0 is the documented residual: it survives clear as the dummy *)
  let removed = List.init 9 (fun i -> weak_of (Vec.get v (i + 1))) in
  Vec.clear v;
  assert_collected "cleared elements are collectable" removed

(* qcheck: a sequence of pushes and clears behaves like a list used as a
   stack, read back through [get], [length] and [to_list]. *)
let prop_stack_model =
  QCheck.Test.make ~name:"vec behaves like a list stack" ~count:300
    QCheck.(list (option small_int))
    (fun operations ->
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | Some x ->
              Vec.push v x;
              model := x :: !model
          | None ->
              Vec.clear v;
              model := [])
        operations;
      let expected = List.rev !model in
      expected = Vec.to_list v
      && Vec.length v = List.length expected
      && List.for_all Fun.id (List.mapi (fun i x -> Vec.get v i = x) expected))

let suite =
  [
    Alcotest.test_case "push/get" `Quick test_push_get;
    Alcotest.test_case "set" `Quick test_set;
    Alcotest.test_case "bounds checks" `Quick test_bounds;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "iter/fold" `Quick test_iter_fold;
    Alcotest.test_case "clear releases elements" `Quick test_clear_releases;
    QCheck_alcotest.to_alcotest prop_stack_model;
  ]
