(* The built [gcr] refuses a grid it cannot run before running anything:
   a scale or heap factor that is not a finite positive number, an empty
   factor list, fewer than one invocation, a heap factor whose heap
   rounds below two regions, or a scale at which a benchmark's min-heap
   search cannot complete exits 3 with a one-line reason, never an
   internal error and never a run that fails cell by cell.  The test's
   dune stanza copies the built [gcr] next to the test directory. *)

let check = Alcotest.check

let gcr =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    "bin/gcr.exe"

let contains haystack needle =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Runs [gcr args] with stdout and stderr in temporary files, so a run that
   prints a lot cannot fill a pipe and stall. *)
let run_gcr args =
  let out = Filename.temp_file "gcr-cli" ".out" and err = Filename.temp_file "gcr-cli" ".err" in
  let open_w file = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let out_fd = open_w out and err_fd = open_w err in
  let pid = Unix.create_process gcr (Array.of_list (gcr :: args)) Unix.stdin out_fd err_fd in
  Unix.close out_fd;
  Unix.close err_fd;
  let _, status = Unix.waitpid [] pid in
  let read file =
    let text = In_channel.with_open_bin file In_channel.input_all in
    Sys.remove file;
    text
  in
  let stdout = read out in
  (status, stdout, read err)

let test_bad_grid_flags () =
  let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name in
  let tape = tmp (Printf.sprintf "gcr-cli-%d.tape" (Unix.getpid ())) in
  let trace = tmp (Printf.sprintf "gcr-cli-%d.json" (Unix.getpid ())) in
  let recorded = tmp (Printf.sprintf "gcr-cli-%d-jme.tape" (Unix.getpid ())) in
  let status, _, _ =
    run_gcr [ "tape"; "record"; "-b"; "jme"; "--scale"; "0.05"; "-o"; recorded ]
  in
  check Alcotest.bool "the tape for tape verify was recorded" true (status = Unix.WEXITED 0);
  (* [names]: a word the gcr: line must contain *)
  let refused ?(names = "") line =
    let args = List.filter (( <> ) "") (String.split_on_char ' ' line) in
    let status, stdout, stderr = run_gcr args in
    check Alcotest.bool (Printf.sprintf "gcr %s exits 3" line) true (status = Unix.WEXITED 3);
    check Alcotest.bool
      (Printf.sprintf "gcr %s says why on a gcr: line (stderr %S)" line stderr)
      true
      (List.exists
         (fun l -> String.starts_with ~prefix:"gcr: " l && contains l names)
         (String.split_on_char '\n' stderr));
    List.iter
      (fun bad ->
        check Alcotest.bool (Printf.sprintf "gcr %s prints no %S" line bad) false
          (contains stdout bad || contains stderr bad))
      [ "internal error"; "uncaught exception"; "died" ]
  in
  (* h2 at scale 0.001 does not complete even in the machine's memory,
     so its min-heap search cannot finish, inline or on a worker *)
  List.iter (refused ~names:"h2")
    [
      "minheap -b h2 --scale 0.001";
      "run -b h2 -g G1 -n 1 --scale 0.001";
      "ablation gc-workers -b h2 --scale 0.001";
      "trace -b h2 --scale 0.001 -o " ^ trace;
      "campaign -b h2 -g G1 --factors 3.0 -n 1 --scale 0.001 -q";
      "campaign -b h2 -g G1 --factors 3.0 -n 1 --scale 0.001 -q -w 2";
    ];
  List.iter refused
    [
      "run -b jme --scale 0";
      "campaign -b jme --scale 0 -q";
      "artefact all -b jme --scale 0 -q";
      "minheap -b jme --scale 0";
      "ablation gc-workers --scale 0";
      "tape record -b jme --scale 0 -o " ^ tape;
      "run -b jme --scale=-1";
      "campaign -b jme -g G1 --scale 0.05 -n 0 -q";
      "run -b jme -g G1 --scale 0.05 -n 0";
      "trace -b jme --scale 0.05 -x 0 -o " ^ trace;
      "campaign -b jme -g G1 --scale 0.05 -n 1 --factors 0 -q";
      "campaign -b jme -g G1 --scale 0.05 -n 1 --factors 1.4,nan -q";
      "campaign -b jme --scale 0.05 -n 1 --factors= -q";
      (* jme's 4,864-word min-heap at scale 0.05 times 0.001 is one region *)
      "trace -b jme -x 0.001 --scale 0.05 -o " ^ trace;
      "ablation gc-workers -x 0.001 --scale 0.05";
      "ablation genshen -x 0.001 --scale 0.05";
      "tape verify " ^ recorded ^ " --scale 0.05 --replay-check -x 0.001";
      "run -b jme -g G1 -x 0.001 --scale 0.05 -n 1";
      "campaign -b jme -g G1 --scale 0.05 -n 1 --factors 0.001 -q";
    ];
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ tape; trace; recorded ]

(* A benchmark, collector, heap factor or controller named twice is one
   configuration: the campaign that repeats every axis prints what the
   deduplicated one prints, and its summary counts the deduplicated cells
   (jme's Epsilon cell and its G1 cell). *)
let test_repeated_grid_values () =
  let campaign axes = run_gcr (("campaign" :: axes) @ [ "-n"; "1"; "--scale"; "0.05" ]) in
  let once_status, once, _ =
    campaign [ "-b"; "jme"; "-g"; "G1"; "--factors"; "3.0"; "--controllers"; "fixed" ]
  in
  let twice_status, twice, twice_err =
    campaign
      [
        "-b"; "jme"; "-b"; "jme"; "-g"; "G1"; "-g"; "G1"; "--factors"; "3.0,3.0";
        "--controllers"; "fixed,fixed";
      ]
  in
  check Alcotest.bool "the deduplicated campaign exits 0" true (once_status = Unix.WEXITED 0);
  check Alcotest.bool "the repeated campaign exits 0" true (twice_status = Unix.WEXITED 0);
  check Alcotest.string "the repeated campaign prints the same report" once twice;
  check Alcotest.bool
    (Printf.sprintf "the summary counts 2 cells (stderr %S)" twice_err)
    true
    (contains twice_err "[harness] 2 cells in ")

let suite =
  [
    Alcotest.test_case "bad grid flags exit 3 with a reason" `Quick test_bad_grid_flags;
    Alcotest.test_case "repeated grid values count once" `Quick test_repeated_grid_values;
  ]
