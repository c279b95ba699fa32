(* Cell naming and construction cost. Cell names are diagnostic: a cell
   stores its name as a prefix plus up to two indices, and only
   [Memory.name] formats them. Two guards keep that honest:

   - name parity: the ordered name list of every registered stack at n=3,
     under both cost models, must match [cell_names.expected] exactly,
     and names must be unique within each stack. The DSM half was
     recorded when names were still formatted eagerly at allocation; the
     CC half was re-recorded when Barrier stopped allocating its DSM
     election under CC, each list a strict subsequence of the eager one;
   - construction allocation: building a stack must stay within a fixed
     number of minor-heap words per cell. With eager [Printf.sprintf]
     naming the T1/T2/T3(MCS) stacks cost ~97 words per cell, and with
     on-demand naming ~28; the bound sits between the two, so formatting
     creeping back into allocation fails here. *)

open Sim

let n = 3

let stacks =
  List.map
    (fun s -> (s, fun mem -> ignore (Rme.Stack.recoverable mem s)))
    Rme.Stack.recoverable_names
  @ List.map
      (fun s -> (s, fun mem -> ignore (Rme.Stack.conventional mem s)))
      Rme.Stack.conventional_names

let models = [ Memory.Cc; Memory.Dsm ]

let names_of build model =
  let mem = Memory.create ~model ~n in
  build mem;
  let acc = ref [] in
  Memory.iter_cells mem (fun c -> acc := Memory.name c :: !acc);
  List.rev !acc

(* One "# <stack> <MODEL> <cells>" header per stack, then its names in
   allocation order. *)
let render () =
  List.concat_map
    (fun model ->
      List.concat_map
        (fun (s, build) ->
          let names = names_of build model in
          Format.asprintf "# %s %a %d" s Memory.pp_model model (List.length names)
          :: names)
        stacks)
    models

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* On a mismatch the rendered list is left in [cell_names.actual] (in the
   test's build directory) so a deliberate change — a new registered
   stack, say — can be reviewed with diff and copied over the
   expectation. *)
let name_parity () =
  let expected = read_lines (Testutil.in_build "cell_names.expected") in
  let actual = render () in
  let fail msg =
    Out_channel.with_open_text (Testutil.in_build "cell_names.actual") (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    Alcotest.failf "%s (full list written to cell_names.actual)" msg
  in
  let rec first_diff k = function
    | e :: es, a :: as_ ->
      if e <> a then fail (Printf.sprintf "line %d: expected %S, got %S" k e a)
      else first_diff (k + 1) (es, as_)
    | [], [] -> ()
    | e :: _, [] -> fail (Printf.sprintf "line %d: expected %S, got end of list" k e)
    | [], a :: _ -> fail (Printf.sprintf "line %d: unexpected extra %S" k a)
  in
  first_diff 1 (expected, actual)

let names_unique () =
  List.iter
    (fun model ->
      List.iter
        (fun (s, build) ->
          let seen = Hashtbl.create 256 in
          List.iter
            (fun name ->
              if Hashtbl.mem seen name then
                Alcotest.failf "%s (%a): duplicate cell name %s" s Memory.pp_model
                  model name;
              Hashtbl.add seen name ())
            (names_of build model))
        stacks)
    models

let index_forms () =
  let mem = Memory.create ~model:Memory.Dsm ~n:2 in
  let name c = Memory.name c in
  Alcotest.(check (list string))
    "prefix, one index, two indices" [ "x"; "x.S[2]"; "x.E[1][0]" ]
    [
      name (Memory.global mem ~name:"x" 0);
      name (Memory.cell mem ~name:"x.S" ~i:2 ~home:2 0);
      name (Memory.global mem ~name:"x.E" ~i:1 ~j:0 0);
    ];
  Alcotest.check_raises "j without i" (Invalid_argument "Memory.cell: bad name index")
    (fun () -> ignore (Memory.global mem ~name:"y" ~j:1 0));
  Alcotest.check_raises "negative index" (Invalid_argument "Memory.cell: bad name index")
    (fun () -> ignore (Memory.cell mem ~name:"y" ~i:(-2) ~home:1 0))

(* Minor words per cell, plus a constant for the per-structure closures
   and records that dominate the 1-2-cell stacks. *)
let words_per_cell = 44.

let constant_words = 96.

let construction_alloc () =
  List.iter
    (fun model ->
      List.iter
        (fun (s, build) ->
          let mem = Memory.create ~model ~n in
          let before = Gc.minor_words () in
          build mem;
          let words = Gc.minor_words () -. before in
          let cells = float (Memory.cell_count mem) in
          let bound = (words_per_cell *. cells) +. constant_words in
          if words > bound then
            Alcotest.failf
              "%s (%a): building %.0f cells allocated %.0f minor words (%.1f/cell), \
               bound %.0f"
              s Memory.pp_model model cells words (words /. cells) bound)
        stacks)
    models

let () =
  Alcotest.run "cells"
    [
      ( "names",
        [
          Alcotest.test_case "parity with eager formatting" `Quick name_parity;
          Alcotest.test_case "unique within each stack" `Quick names_unique;
          Alcotest.test_case "index forms" `Quick index_forms;
        ] );
      ( "construction",
        [ Alcotest.test_case "minor words per cell" `Quick construction_alloc ] );
    ]
