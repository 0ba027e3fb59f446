(* Ivec unit tests plus a qcheck model test against a list stack. *)

module Ivec = Gcr_util.Ivec

let check = Alcotest.check

let of_list xs =
  let v = Ivec.create () in
  List.iter (Ivec.push v) xs;
  v

let to_list v = List.rev (Ivec.fold (fun acc x -> x :: acc) [] v)

let test_push_get () =
  let v = Ivec.create () in
  for i = 0 to 99 do
    Ivec.push v (i * 2)
  done;
  check Alcotest.int "length" 100 (Ivec.length v);
  for i = 0 to 99 do
    check Alcotest.int "get" (i * 2) (Ivec.get v i)
  done

let test_pop () =
  let v = of_list [ 1; 2; 3 ] in
  check Alcotest.int "pop" 3 (Ivec.pop v);
  check Alcotest.int "pop" 2 (Ivec.pop v);
  check Alcotest.int "pop" 1 (Ivec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Ivec.pop: empty") (fun () ->
      ignore (Ivec.pop v))

let test_bounds () =
  let v = of_list [ 1; 2 ] in
  let oob = Invalid_argument "Ivec: index out of bounds" in
  Alcotest.check_raises "get past the end" oob (fun () -> ignore (Ivec.get v 2));
  Alcotest.check_raises "get negative" oob (fun () -> ignore (Ivec.get v (-1)));
  Alcotest.check_raises "set past the end" oob (fun () -> Ivec.set v 2 0);
  Alcotest.check_raises "set negative" oob (fun () -> Ivec.set v (-1) 0);
  (* a cleared slot is out of range even though the backing array holds it *)
  Ivec.clear v;
  Alcotest.check_raises "get after clear" oob (fun () -> ignore (Ivec.get v 0));
  Alcotest.check_raises "make negative" (Invalid_argument "Ivec.make: negative capacity")
    (fun () -> ignore (Ivec.make ~capacity:(-1)))

let test_clear_and_reuse () =
  let v = Ivec.make ~capacity:4 in
  List.iter (Ivec.push v) [ 1; 2; 3; 4; 5; 6 ];
  Ivec.clear v;
  check Alcotest.bool "empty" true (Ivec.is_empty v);
  Ivec.push v 7;
  check Alcotest.(list int) "reusable" [ 7 ] (to_list v)

let test_iter_fold () =
  let v = of_list [ 4; 1; 3; 2 ] in
  check Alcotest.int "fold sum" 10 (Ivec.fold ( + ) 0 v);
  let seen = ref [] in
  Ivec.iter (fun x -> seen := x :: !seen) v;
  check Alcotest.(list int) "iter goes front to back" [ 4; 1; 3; 2 ] (List.rev !seen)

let test_filter_in_place () =
  let v = of_list [ 5; 8; 1; 6; 3; 4; 4 ] in
  let visited = ref [] in
  Ivec.filter_in_place
    (fun x ->
      visited := x :: !visited;
      x mod 2 = 0)
    v;
  check Alcotest.(list int) "every element visited once, in order" [ 5; 8; 1; 6; 3; 4; 4 ]
    (List.rev !visited);
  check Alcotest.(list int) "survivors keep their order" [ 8; 6; 4; 4 ] (to_list v);
  Ivec.push v 9;
  check Alcotest.(list int) "push after filter" [ 8; 6; 4; 4; 9 ] (to_list v)

type op = Push of int | Pop | Clear | Get of int | Set of int * int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun x -> Push x) int);
        (2, return Pop);
        (1, return Clear);
        (2, map (fun i -> Get i) (int_range (-2) 40));
        (2, map2 (fun i x -> Set (i, x)) (int_range (-2) 40) int);
      ])

let op_print = function
  | Push x -> Printf.sprintf "push %d" x
  | Pop -> "pop"
  | Clear -> "clear"
  | Get i -> Printf.sprintf "get %d" i
  | Set (i, x) -> Printf.sprintf "set %d %d" i x

(* The model is a list stack, top first.  Out-of-range reads and writes
   must raise exactly where the model has no element. *)
let prop_stack_model =
  QCheck.Test.make ~name:"ivec behaves like a list stack" ~count:500
    QCheck.(list (make ~print:op_print op_gen))
    (fun ops ->
      let v = Ivec.create () in
      let model = ref [] in
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      let ok =
        List.for_all
          (fun op ->
            let n = List.length !model in
            match op with
            | Push x ->
                Ivec.push v x;
                model := x :: !model;
                true
            | Pop -> (
                match !model with
                | [] -> raises (fun () -> Ivec.pop v)
                | x :: rest ->
                    model := rest;
                    Ivec.pop v = x)
            | Clear ->
                Ivec.clear v;
                model := [];
                true
            | Get i ->
                if i < 0 || i >= n then raises (fun () -> Ivec.get v i)
                else Ivec.get v i = List.nth !model (n - 1 - i)
            | Set (i, x) ->
                if i < 0 || i >= n then raises (fun () -> Ivec.set v i x)
                else begin
                  Ivec.set v i x;
                  model := List.mapi (fun j y -> if j = n - 1 - i then x else y) !model;
                  true
                end)
          ops
      in
      ok && Ivec.length v = List.length !model && to_list v = List.rev !model)

let suite =
  [
    Alcotest.test_case "push/get" `Quick test_push_get;
    Alcotest.test_case "pop" `Quick test_pop;
    Alcotest.test_case "bounds checks" `Quick test_bounds;
    Alcotest.test_case "clear and reuse" `Quick test_clear_and_reuse;
    Alcotest.test_case "iter/fold" `Quick test_iter_fold;
    Alcotest.test_case "filter_in_place keeps order" `Quick test_filter_in_place;
    QCheck_alcotest.to_alcotest prop_stack_model;
  ]
