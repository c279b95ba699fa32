(* Cross-checks for the incremental Zobrist state digests (DESIGN.md
   §5.14): the O(1)-maintained [Memory.fingerprint] and
   [Runtime.fingerprint] must equal their from-scratch [*_slow]
   recomputations after arbitrary seeded op storms — crashes, single-
   process crashes, await wake-ups, pokes and mid-run cell allocation
   included — and the lazy enablement (prefix fast-forwarding in the
   model checker) must not change any exploration outcome. *)

open Sim
open Testutil

let check_mem what mem =
  Alcotest.(check int)
    (what ^ ": memory digest")
    (Memory.fingerprint_slow mem) (Memory.fingerprint mem)

let check_rt what rt =
  Alcotest.(check int)
    (what ^ ": runtime digest")
    (Runtime.fingerprint_slow rt) (Runtime.fingerprint rt)

(* --- memory storms (no fibers: drive the exec_* fast paths directly) --- *)

let memory_storm ~model ~lazy_enable () =
  let rng = Random.State.make [| 0xF17; (if lazy_enable then 1 else 0) |] in
  let n = 4 in
  let mem = Memory.create ~model ~n in
  let cells = ref [] in
  let new_cell i =
    let c =
      Memory.cell mem
        ~name:(Printf.sprintf "c%d" i)
        ~home:(1 + Random.State.int rng n)
        (Random.State.int rng 5)
    in
    cells := c :: !cells
  in
  for i = 0 to 7 do
    new_cell i
  done;
  (* Eager variant: maintenance on from the start. Lazy variant: the
     first 300 ops run with the digest off; the first [fingerprint] in
     the checkpoint below resyncs and switches it on. *)
  if not lazy_enable then ignore (Memory.fingerprint mem);
  let pick () = List.nth !cells (Random.State.int rng (List.length !cells)) in
  for i = 0 to 999 do
    let pid = 1 + Random.State.int rng n in
    let v = Random.State.int rng 5 in
    (match Random.State.int rng 8 with
    | 0 -> ignore (Memory.exec_read mem ~pid (pick ()))
    | 1 -> ignore (Memory.exec_write mem ~pid (pick ()) v)
    | 2 ->
      ignore
        (Memory.exec_cas mem ~pid (pick ()) ~expect:(Random.State.int rng 5)
           ~repl:v)
    | 3 -> ignore (Memory.exec_fas mem ~pid (pick ()) v)
    | 4 -> ignore (Memory.exec_faa mem ~pid (pick ()) v)
    | 5 ->
      let c = pick () and dst = pick () in
      if Memory.id c <> Memory.id dst then
        ignore (Memory.exec_fasas mem ~pid c v ~dst)
    | 6 -> Memory.poke mem (pick ()) v
    | 7 ->
      (* allocation after enablement must fold the new cell in *)
      if Random.State.int rng 10 = 0 then new_cell (8 + i)
    | _ -> assert false);
    if i mod 100 = 99 then check_mem (Printf.sprintf "op %d" i) mem
  done;
  check_mem "final" mem

(* Dirty-set snapshots must equal the straightforward value vector no
   matter how writes and snapshots interleave. *)
let snapshot_storm () =
  let rng = Random.State.make [| 0x5AAB |] in
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let cells =
    Array.init 6 (fun i ->
        Memory.global mem ~name:(Printf.sprintf "s%d" i) i)
  in
  for round = 0 to 49 do
    for _ = 0 to Random.State.int rng 20 do
      ignore
        (Memory.exec_write mem ~pid:1
           cells.(Random.State.int rng (Array.length cells))
           (Random.State.int rng 100))
    done;
    let snap = Memory.snapshot mem in
    let expected =
      Array.init (Memory.cell_count mem) (fun i -> Memory.peek cells.(i))
    in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d" round)
      expected snap
  done

(* The per-slot Zobrist keys are what keeps the XOR digest collision-
   resistant to value swaps: with a shared key, {x=1,y=2} and {x=2,y=1}
   would cancel to the same digest. *)
let swapped_values_do_not_collide () =
  Alcotest.(check bool)
    "zobrist keys separate swapped slots" false
    (Encode.zobrist 0 1 lxor Encode.zobrist 1 2
    = Encode.zobrist 0 2 lxor Encode.zobrist 1 1);
  let build a b =
    let mem = Memory.create ~model:Memory.Cc ~n:1 in
    ignore (Memory.global mem ~name:"x" a);
    ignore (Memory.global mem ~name:"y" b);
    Memory.fingerprint mem
  in
  Alcotest.(check bool)
    "two-cell swap distinguishes" true
    (build 1 2 <> build 2 1)

(* --- runtime storms: real algorithm fibers under a seeded scheduler --- *)

let runtime_storm ~scenario ~crash_ones () =
  let module MC = Harness.Model_check in
  let rng = Random.State.make [| 0xBEEF; (if crash_ones then 1 else 0) |] in
  let sc : MC.scenario = scenario in
  let w = MC.world sc in
  (* Monitors are not under test here — and the independent-crash storm
     deliberately breaks system-wide-failure algorithms (DESIGN.md
     §5.10), so violations are expected noise. *)
  MC.reset w ~violation:ignore;
  let mem = MC.memory w and rt = MC.runtime w in
  ignore (Runtime.fingerprint rt);
  ignore (Memory.fingerprint mem);
  for i = 0 to 3_999 do
    let runnable =
      List.filter
        (fun pid -> not (Runtime.blocked rt pid))
        (Runtime.enabled rt)
    in
    (match (runnable, Random.State.int rng 100) with
    | _, 0 -> Runtime.crash rt ~bump:(1 + Random.State.int rng 2) ()
    | _, 1 when crash_ones ->
      Runtime.crash_one rt (1 + Random.State.int rng sc.MC.n)
    | [], _ -> Runtime.crash rt ()
    | pids, _ ->
      Runtime.step rt (List.nth pids (Random.State.int rng (List.length pids))));
    if i mod 250 = 249 then begin
      check_rt (Printf.sprintf "step %d" i) rt;
      check_mem (Printf.sprintf "step %d" i) mem
    end
  done;
  check_rt "final" rt;
  check_mem "final" mem

(* --- lazy enablement must not perturb the search --- *)

(* Prefix fast-forwarding is "digests off until the first covered-check
   past the cut"; [~eager_fingerprints] forces them on from step 0.
   The search is deterministic, so outcomes must be byte-identical. *)
let eager_lazy_parity () =
  let module MC = Harness.Model_check in
  let scenarios =
    [
      ( "t2-mcs n=2", 1, 1,
        Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
          ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
          () );
      ( "barrier n=2", 2, 1,
        Harness.Scenarios.barrier ~epochs:2 ~n:2 ~model:Memory.Dsm () );
    ]
  in
  List.iter
    (fun (name, d, c, sc) ->
      List.iter
        (fun reduction ->
          let run eager =
            MC.explore ~divergence_bound:d ~crash_bound:c ~reduction
              ~eager_fingerprints:eager sc
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: byte-identical outcome" name
               (MC.reduction_to_string reduction))
            true
            (run false = run true))
        [ MC.No_reduction; MC.Dedup; MC.Por ])
    scenarios

let () =
  Alcotest.run "fingerprint"
    [
      ( "memory",
        [
          case "storm-cc-eager" (memory_storm ~model:Memory.Cc ~lazy_enable:false);
          case "storm-cc-lazy" (memory_storm ~model:Memory.Cc ~lazy_enable:true);
          case "storm-dsm-eager"
            (memory_storm ~model:Memory.Dsm ~lazy_enable:false);
          case "storm-dsm-lazy" (memory_storm ~model:Memory.Dsm ~lazy_enable:true);
          case "snapshot-dirty-set" snapshot_storm;
          case "no-xor-swap-collision" swapped_values_do_not_collide;
        ] );
      ( "runtime",
        [
          case "storm-t2-mcs"
            (runtime_storm
               ~scenario:
                 (Harness.Scenarios.rme ~n:3 ~model:Memory.Cc
                    ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
                    ())
               ~crash_ones:false);
          case "storm-t2-mcs-independent-crashes"
            (runtime_storm
               ~scenario:
                 (Harness.Scenarios.rme ~check_csr:false ~n:3 ~model:Memory.Cc
                    ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
                    ())
               ~crash_ones:true);
          case "storm-barrier"
            (runtime_storm
               ~scenario:
                 (Harness.Scenarios.barrier ~epochs:3 ~n:4 ~model:Memory.Dsm ())
               ~crash_ones:false);
        ] );
      ("explore", [ case "eager-lazy-parity" eager_lazy_parity ]);
    ]
