(* Unit tests for the simulator substrate: memory-cost models, the fiber
   runtime, crash steps, schedulers, value packing and statistics. *)

open Sim

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Runs [body] as process 1 of a 1-process simulation to completion. *)
let solo ?(model = Memory.Cc) body =
  let mem = Memory.create ~model ~n:1 in
  let rt = Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ -> body mem) in
  while not (Runtime.all_done rt) do
    Runtime.step rt 1
  done;
  mem

(* --- Encode --- *)

let encode_roundtrip () =
  for id = 1 to 100 do
    for tag = 0 to 1 do
      let packed = Encode.pair ~id ~tag in
      check "id" id (Encode.id_of packed);
      check "tag" tag (Encode.tag_of packed);
      check_bool "not bottom" false (Encode.is_bottom packed)
    done
  done;
  check_bool "bottom" true (Encode.is_bottom Encode.bottom)

let encode_no_collision () =
  (* No (id, tag) pair may collide with bottom or any other pair. *)
  let seen = Hashtbl.create 64 in
  Hashtbl.add seen Encode.bottom ();
  for id = 1 to 50 do
    for tag = 0 to 1 do
      let p = Encode.pair ~id ~tag in
      check_bool "fresh" false (Hashtbl.mem seen p);
      Hashtbl.add seen p ()
    done
  done

(* --- Memory: CC cost model --- *)

let cc_first_read_is_rmr () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"x" 7 in
  let v, rmr = Memory.apply mem ~pid:1 (Memory.Read c) in
  check "value" 7 v;
  check_bool "first read is an RMR" true rmr;
  let _, rmr2 = Memory.apply mem ~pid:1 (Memory.Read c) in
  check_bool "second read is cached" false rmr2

let cc_read_cached_per_process () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"x" 0 in
  ignore (Memory.apply mem ~pid:1 (Memory.Read c));
  let _, rmr = Memory.apply mem ~pid:2 (Memory.Read c) in
  check_bool "p2's first read is its own RMR" true rmr;
  (* Both now cached; a read by either is free. *)
  let _, r1 = Memory.apply mem ~pid:1 (Memory.Read c) in
  let _, r2 = Memory.apply mem ~pid:2 (Memory.Read c) in
  check_bool "p1 cached" false r1;
  check_bool "p2 cached" false r2

let cc_write_invalidates_all () =
  let mem = Memory.create ~model:Memory.Cc ~n:3 in
  let c = Memory.global mem ~name:"x" 0 in
  ignore (Memory.apply mem ~pid:1 (Memory.Read c));
  ignore (Memory.apply mem ~pid:2 (Memory.Read c));
  let _, w = Memory.apply mem ~pid:3 (Memory.Write (c, 5)) in
  check_bool "write is an RMR" true w;
  let _, r1 = Memory.apply mem ~pid:1 (Memory.Read c) in
  let _, r2 = Memory.apply mem ~pid:2 (Memory.Read c) in
  check_bool "p1 invalidated" true r1;
  check_bool "p2 invalidated" true r2

let cc_own_write_invalidates_self () =
  (* The paper's definition is conservative: an in-cache read requires the
     preceding accesses (by anyone, including the reader) to be reads. *)
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let c = Memory.global mem ~name:"x" 0 in
  ignore (Memory.apply mem ~pid:1 (Memory.Read c));
  ignore (Memory.apply mem ~pid:1 (Memory.Write (c, 1)));
  let _, rmr = Memory.apply mem ~pid:1 (Memory.Read c) in
  check_bool "own write invalidates own cache" true rmr

let cc_failed_cas_is_rmr_and_invalidates () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"x" 3 in
  ignore (Memory.apply mem ~pid:1 (Memory.Read c));
  let v, rmr = Memory.apply mem ~pid:2 (Memory.Cas (c, 99, 42)) in
  check "failed CAS returns old value" 3 v;
  check "failed CAS leaves value" 3 (Memory.peek c);
  check_bool "failed CAS is an RMR" true rmr;
  let _, r1 = Memory.apply mem ~pid:1 (Memory.Read c) in
  check_bool "failed CAS invalidates readers" true r1

let rmw_semantics () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let c = Memory.global mem ~name:"x" 10 in
  let old, _ = Memory.apply mem ~pid:1 (Memory.Cas (c, 10, 20)) in
  check "CAS returns old" 10 old;
  check "CAS swapped" 20 (Memory.peek c);
  let old, _ = Memory.apply mem ~pid:1 (Memory.Fas (c, 30)) in
  check "FAS returns old" 20 old;
  check "FAS stored" 30 (Memory.peek c);
  let old, _ = Memory.apply mem ~pid:1 (Memory.Faa (c, 5)) in
  check "FAA returns old" 30 old;
  check "FAA added" 35 (Memory.peek c)

(* --- Memory: DSM cost model --- *)

let dsm_locality () =
  let mem = Memory.create ~model:Memory.Dsm ~n:2 in
  let local = Memory.cell mem ~name:"l" ~home:2 0 in
  let _, r_home = Memory.apply mem ~pid:2 (Memory.Read local) in
  let _, r_remote = Memory.apply mem ~pid:1 (Memory.Read local) in
  check_bool "home read free" false r_home;
  check_bool "remote read costs" true r_remote;
  (* Unlike CC, repeated remote reads stay expensive. *)
  let _, again = Memory.apply mem ~pid:1 (Memory.Read local) in
  check_bool "remote spin stays expensive in DSM" true again;
  let _, w_home = Memory.apply mem ~pid:2 (Memory.Write (local, 1)) in
  check_bool "home write free" false w_home

let dsm_counters () =
  let mem = Memory.create ~model:Memory.Dsm ~n:2 in
  let c = Memory.cell mem ~name:"c" ~home:1 0 in
  for _ = 1 to 5 do
    ignore (Memory.apply mem ~pid:2 (Memory.Read c))
  done;
  ignore (Memory.apply mem ~pid:1 (Memory.Read c));
  check "p2 rmrs" 5 (Memory.rmrs mem ~pid:2);
  check "p1 rmrs" 0 (Memory.rmrs mem ~pid:1);
  check "p2 steps" 5 (Memory.steps mem ~pid:2);
  check "total" 5 (Memory.total_rmrs mem)

let bitset_beyond_word () =
  (* Reader sets must work for > 62 processes. *)
  let n = 130 in
  let mem = Memory.create ~model:Memory.Cc ~n in
  let c = Memory.global mem ~name:"x" 0 in
  for pid = 1 to n do
    let _, rmr = Memory.apply mem ~pid (Memory.Read c) in
    check_bool "first read rmr" true rmr
  done;
  for pid = 1 to n do
    let _, rmr = Memory.apply mem ~pid (Memory.Read c) in
    check_bool "second read cached" false rmr
  done

(* The member queries against a list model, on random subsets of sets
   that span one, two and three words. *)
let bitset_members () =
  let rng = Random.State.make [| 17 |] in
  List.iter
    (fun n ->
      for _ = 1 to 20 do
        let s = Bitset.create n in
        let model = List.filter (fun _ -> Random.State.bool rng) (List.init n succ) in
        List.iter (Bitset.add s) model;
        let what = Printf.sprintf "n=%d" n in
        check (what ^ " cardinal") (List.length model) (Bitset.cardinal s);
        check_bool (what ^ " is_empty") (model = []) (Bitset.is_empty s);
        List.iteri (fun k pid -> check (what ^ " nth") pid (Bitset.nth s k)) model;
        for p = 0 to n do
          let expect = Option.value ~default:0 (List.find_opt (fun q -> q > p) model) in
          check (what ^ " next") expect (Bitset.next s p)
        done;
        List.iter (Bitset.remove s) model;
        check_bool (what ^ " emptied") true (Bitset.is_empty s)
      done)
    [ 1; 5; 61; 62; 63; 124; 130 ]

(* --- Runtime --- *)

let runtime_runs_to_completion () =
  let trace = ref [] in
  let mem =
    solo (fun mem ->
        let c = Memory.global mem ~name:"x" 0 in
        Proc.write c 1;
        trace := Proc.read c :: !trace;
        Proc.write c 2)
  in
  check "steps" 3 (Memory.steps mem ~pid:1);
  check "read value" 1 (List.hd !trace)

let runtime_step_is_one_op () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let c = Memory.global mem ~name:"x" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ ->
        Proc.write c 1;
        Proc.write c 2;
        Proc.write c 3)
  in
  Runtime.step rt 1;
  check "after one step" 1 (Memory.peek c);
  Runtime.step rt 1;
  check "after two steps" 2 (Memory.peek c);
  Runtime.step rt 1;
  check_bool "done" true (Runtime.all_done rt);
  check "final" 3 (Memory.peek c)

let crash_restarts_with_higher_epoch () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"x" 0 in
  let epochs_seen = ref [] in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch ->
        if pid = 1 then epochs_seen := epoch :: !epochs_seen;
        Proc.write c epoch;
        Proc.write c (epoch * 10))
  in
  Runtime.step rt 1;
  check "first epoch write" 1 (Memory.peek c);
  Runtime.crash rt ();
  check_bool "enabled again" true (Runtime.runnable rt 1);
  Runtime.step rt 1;
  Runtime.step rt 1;
  check "restarted with epoch 2" 20 (Memory.peek c);
  check "epochs seen" 2 (List.length !epochs_seen);
  Alcotest.(check (list int)) "epochs" [ 2; 1 ] !epochs_seen

let crash_preserves_shared_memory () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let c = Memory.global mem ~name:"x" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid:_ ~epoch ->
        if epoch = 1 then begin
          Proc.write c 42;
          Proc.write c 43 (* never executed: crash lands first *)
        end)
  in
  Runtime.step rt 1;
  Runtime.crash rt ();
  check "NVRAM survives" 42 (Memory.peek c);
  (* epoch 2 body writes nothing *)
  while not (Runtime.all_done rt) do
    Runtime.step rt 1
  done;
  check "still 42" 42 (Memory.peek c)

let crash_loses_private_state () =
  (* A private accumulator resets across crashes because the closure
     restarts; persistent state must live outside the body. *)
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let c = Memory.global mem ~name:"x" 0 in
  let observed = ref (-1) in
  let rt =
    Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ ->
        let private_count = ref 0 in
        incr private_count;
        Proc.write c 1;
        incr private_count;
        Proc.write c 2;
        observed := !private_count)
  in
  Runtime.step rt 1;
  Runtime.crash rt ();
  Runtime.step rt 1;
  Runtime.step rt 1;
  check "private state restarted from scratch" 2 !observed

let crash_bump_skips_epochs () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let rt = Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ -> ()) in
  check "initial epoch" 1 (Runtime.epoch rt);
  Runtime.crash rt ~bump:5 ();
  check "skipped" 6 (Runtime.epoch rt);
  Alcotest.check_raises "bump must be positive"
    (Invalid_argument "Runtime.crash: bump must be >= 1") (fun () ->
      Runtime.crash rt ~bump:0 ())

let on_crash_hooks_fire () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let rt = Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ -> ()) in
  let fired = ref [] in
  Runtime.on_crash rt (fun ~epoch -> fired := epoch :: !fired);
  Runtime.crash rt ();
  Runtime.crash rt ();
  Alcotest.(check (list int)) "hook epochs" [ 3; 2 ] !fired

let await_blocks_and_wakes () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"gate" 0 in
  let woke = ref false in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
        if pid = 1 then begin
          ignore (Proc.await c ~until:(fun v -> v = 1));
          woke := true
        end
        else Proc.write c 1)
  in
  Runtime.step rt 1;
  (* p1 performed its first read of the gate and is now blocked *)
  check_bool "blocked" true (Runtime.blocked rt 1);
  check_bool "writer not blocked" false (Runtime.blocked rt 2);
  Alcotest.(check (option string))
    "blocked on" (Some "gate") (Runtime.blocked_on rt 1);
  Runtime.step rt 1;
  (* spinning: still blocked, step consumed *)
  check_bool "still blocked" true (Runtime.blocked rt 1);
  Runtime.step rt 2;
  check_bool "unblocked after write" false (Runtime.blocked rt 1);
  Runtime.step rt 1;
  check_bool "woke" true !woke

let await_spin_is_cheap_in_cc () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"gate" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
        if pid = 1 then ignore (Proc.await c ~until:(fun v -> v = 1))
        else Proc.write c 1)
  in
  for _ = 1 to 10 do
    Runtime.step rt 1
  done;
  check "ten spins cost one RMR in CC" 1 (Memory.rmrs mem ~pid:1);
  Runtime.step rt 2;
  Runtime.step rt 1;
  (* the wake-up read re-fetches after the invalidation *)
  check "one more RMR to observe the write" 2 (Memory.rmrs mem ~pid:1)

let crash_while_blocked () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let c = Memory.global mem ~name:"gate" 0 in
  let completions = ref 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid:_ ~epoch ->
        if epoch = 1 then ignore (Proc.await c ~until:(fun v -> v = 1))
        else incr completions)
  in
  Runtime.step rt 1;
  check_bool "blocked" true (Runtime.blocked rt 1);
  Runtime.crash rt ();
  while not (Runtime.all_done rt) do
    Runtime.step rt 1
  done;
  check "epoch-2 body ran" 1 !completions

(* Reset discontinues suspended fibers rather than dropping them: each
   body's own unwinding runs, once per suspended process. *)
let reset_discontinues_fibers () =
  let n = 3 in
  let mem = Memory.create ~model:Memory.Cc ~n in
  let c = Memory.global mem ~name:"x" 0 in
  let unwound = ref 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ ->
        Fun.protect
          ~finally:(fun () -> incr unwound)
          (fun () ->
            ignore (Proc.read c);
            ignore (Proc.read c)))
  in
  for pid = 1 to n do
    Runtime.step rt pid
  done;
  check "suspended, not unwound" 0 !unwound;
  Runtime.reset rt;
  check "every suspended fiber unwound" n !unwound;
  check_bool "all back in the NCS" true
    (List.for_all (Runtime.runnable rt) [ 1; 2; 3 ])

(* --- step_n: k steps taken inside the handler equal k calls of step --- *)

(* Everything a step can change, printed: clock, epoch, crashes, the live
   set, every cell's value, per-pid RMR and step counts, per-pid slot
   kind and consumed-value signature (through [sym_contribution]), and
   the from-scratch runtime and memory digests. *)
let observe w =
  let module MC = Harness.Model_check in
  let mem = MC.memory w and rt = MC.runtime w in
  let b = Buffer.create 512 in
  Printf.bprintf b "clock=%d epoch=%d crashes=%d live=[%s] fp=%d/%d\nmem="
    (Runtime.clock rt) (Runtime.epoch rt) (Runtime.crashes rt)
    (String.concat "," (List.map string_of_int (Runtime.enabled rt)))
    (Runtime.fingerprint_slow rt) (Memory.fingerprint_slow mem);
  Array.iter (Printf.bprintf b "%d,") (Memory.snapshot mem);
  for pid = 1 to Runtime.n rt do
    Printf.bprintf b "\np%d rmrs=%d steps=%d slot=%d fresh=%b blocked=%b" pid
      (Memory.rmrs mem ~pid) (Memory.steps mem ~pid)
      (Runtime.sym_contribution rt pid) (Runtime.opaque rt pid)
      (Runtime.blocked rt pid)
  done;
  Buffer.contents b

(* Drives two worlds of one scenario through the same seeded schedule:
   world [a] takes every step with [Runtime.step], world [b] takes each
   run of same-pid steps with the call under test, through [run], and
   the two must agree after every run. A run's pid is a random live
   process (blocked ones included, so awaits fail) and its bound [k] is
   up to 24 steps (half of them at most 4, so processes meet in the
   lock); crashes, crash-ones and, with [faults], lost wakeups and
   delayed writes come between runs. With [live] both worlds maintain
   their digests from the start, and the incremental fingerprints must
   agree too. [cover] counts the cases the property is about: slots 0
   and 1 a run right after a crash and a crash right after a run, slots
   2 to 7 whatever [run] counts. *)
let step_parity ~run ~cover ~stack ~model ~seed ~faults ~live =
  let module MC = Harness.Model_check in
  let sc =
    Harness.Scenarios.rme ~passages:4 ~check_csr:false ~n:3 ~model
      ~make:(fun mem -> Rme.Stack.recoverable mem stack)
      ()
  in
  let a = MC.world sc and b = MC.world sc in
  MC.reset a ~violation:ignore;
  MC.reset b ~violation:ignore;
  let ra = MC.runtime a and rb = MC.runtime b in
  let both f = f ra; f rb in
  if live then
    List.iter
      (fun w ->
        ignore (Runtime.fingerprint (MC.runtime w));
        ignore (Memory.fingerprint (MC.memory w)))
      [ a; b ];
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let last_was_crash = ref false and last_was_run = ref false in
  let crashed () =
    if !last_was_run then cover.(1) <- cover.(1) + 1;
    last_was_crash := true;
    last_was_run := false
  in
  for i = 1 to 300 do
    let what =
      Format.asprintf "%s %a seed %d run %d" stack Memory.pp_model model seed i
    in
    (match (Runtime.enabled ra, Random.State.int rng 30) with
    | [], _ | _, 0 ->
      both (fun rt -> Runtime.crash rt ());
      crashed ()
    | pids, 1 ->
      let pid = pick pids in
      both (fun rt -> Runtime.crash_one rt pid);
      crashed ()
    | pids, 2 when faults ->
      let pid = pick pids in
      if Random.State.bool rng then
        both (fun rt -> ignore (Runtime.lose_wakeup rt pid))
      else
        let window = 1 + Random.State.int rng 8 in
        both (fun rt -> Runtime.delay_writes rt pid ~window)
    | pids, _ ->
      let pid = pick pids in
      let k =
        1 + Random.State.int rng (if Random.State.bool rng then 4 else 24)
      in
      run ~what ~cover ra rb pid k;
      if !last_was_crash then cover.(0) <- cover.(0) + 1;
      last_was_crash := false;
      last_was_run := true);
    Alcotest.(check string) what (observe a) (observe b);
    if live then
      Alcotest.(check int) (what ^ ": incremental digest")
        (Runtime.fingerprint ra) (Runtime.fingerprint rb)
  done;
  (* Resynced from scratch, the digests agree too. *)
  Alcotest.(check int) (stack ^ ": resynced runtime digest")
    (Runtime.fingerprint ra) (Runtime.fingerprint rb);
  Alcotest.(check int) (stack ^ ": resynced memory digest")
    (Memory.fingerprint (MC.memory a)) (Memory.fingerprint (MC.memory b));
  both Runtime.reset

(* Every seeded configuration: CC and DSM, faults armed or not, digests
   live or lazy; then every [cases] slot must have been met. *)
let parity_matches ~run ~cases stack () =
  let cover = Array.make 8 0 in
  List.iteri
    (fun i (model, faults, live) ->
      step_parity ~run ~cover ~stack ~model ~seed:(0x57E9 + i) ~faults ~live)
    [
      (Memory.Cc, false, false);
      (Memory.Dsm, false, false);
      (Memory.Cc, false, true);
      (Memory.Dsm, true, false);
      (Memory.Cc, true, true);
    ];
  List.iteri
    (fun i case ->
      if cover.(i) = 0 then
        Alcotest.failf "%s: no %s in any schedule" stack case)
    ("run right after a crash" :: "crash right after a run" :: cases)

(* [k] steps while the process lasts, against one [Runtime.step_n]. *)
let step_n_run ~what:_ ~cover ra rb pid k =
  let taken = ref 0 in
  while !taken < k && Runtime.runnable ra pid do
    if !taken > 0 && Runtime.blocked ra pid then cover.(2) <- cover.(2) + 1;
    Runtime.step ra pid;
    incr taken
  done;
  Runtime.step_n rb pid !taken;
  if not (Runtime.runnable ra pid) then cover.(3) <- cover.(3) + 1

let step_n_matches_steps =
  parity_matches ~run:step_n_run
    ~cases:[ "failed await mid-run"; "finish on a run's last step" ]

(* One step, then more while the process is runnable, not blocked and
   under [k], against one [Runtime.step_productive] with the same count.
   Counts the stop cause: a blocked await, the body's end, or [k]; and a
   fresh process whose first operation is a blocked await. *)
let step_productive_run ~what ~cover ra rb pid k =
  let fresh = Runtime.opaque ra pid in
  Runtime.step ra pid;
  let taken = ref 1 in
  while !taken < k && Runtime.runnable ra pid && not (Runtime.blocked ra pid) do
    Runtime.step ra pid;
    incr taken
  done;
  Alcotest.(check int) (what ^ ": steps taken") !taken
    (Runtime.step_productive rb pid ~max:k);
  let stop =
    if not (Runtime.runnable ra pid) then 3
    else if !taken < k then 2
    else 4
  in
  cover.(stop) <- cover.(stop) + 1;
  if fresh && !taken = 1 && stop = 2 then cover.(5) <- cover.(5) + 1

(* No seeded jjj-dsm schedule starts a body at a blocked await;
   [step_productive_stops] covers that case on a hand-built body. *)
let step_productive_matches_steps ?(fresh_blocked = true) =
  parity_matches ~run:step_productive_run
    ~cases:
      ([ "stop at a blocked await"; "stop at the body's end"; "stop at max" ]
      @ if fresh_blocked then [ "fresh process blocked at its first await" ]
        else [])

(* The stop rule on a hand-built body: a fresh process whose first
   operation is a blocked await takes that one step, a productive run
   stops before a failing await (not after it) and at [max], and a
   finished body ends the run. *)
let step_productive_stops () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let go = Memory.global mem ~name:"go" 0 and x = Memory.global mem ~name:"x" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
        if pid = 1 then begin
          ignore (Proc.await go ~until:(fun v -> v = 1));
          Proc.write x 1;
          ignore (Proc.await go ~until:(fun v -> v = 2));
          ignore (Proc.read x)
        end
        else begin
          Proc.write go 1;
          Proc.write x 2;
          Proc.write x 3;
          Proc.write go 2
        end)
  in
  check "fresh, first await blocked: one step" 1
    (Runtime.step_productive rt 1 ~max:10);
  check_bool "still blocked" true (Runtime.blocked rt 1);
  check "the failed await re-read its cell" 1 (Memory.steps mem ~pid:1);
  check "stops at max" 2 (Runtime.step_productive rt 2 ~max:2);
  check "p1 through its await, stops before the next" 2
    (Runtime.step_productive rt 1 ~max:10);
  check_bool "p1 blocked again" true (Runtime.blocked rt 1);
  check "p2 to its end" 2 (Runtime.step_productive rt 2 ~max:10);
  check_bool "p2 finished" false (Runtime.runnable rt 2);
  check "p1 to its end" 2 (Runtime.step_productive rt 1 ~max:10);
  check "clock" 9 (Runtime.clock rt);
  check_bool "all done" true (Runtime.all_done rt);
  check "no step at max 0" 0 (Runtime.step_productive rt 1 ~max:0)

(* Past the body's end [step_n] raises like the extra [step] would, with
   the state of the steps it took; a body with no operation still takes
   its one step. *)
let step_n_past_finish () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"x" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
        if pid = 1 then begin
          Proc.write c 1;
          ignore (Proc.read c);
          Proc.write c 2
        end)
  in
  Runtime.step_n rt 1 0;
  check "zero steps" 0 (Runtime.clock rt);
  (match Runtime.step_n rt 1 10 with
  | () -> Alcotest.fail "stepped past the end"
  | exception Invalid_argument _ -> ());
  check "three steps taken" 3 (Runtime.clock rt);
  check "all three ops" 2 (Memory.peek c);
  check_bool "finished" false (Runtime.runnable rt 1);
  (match Runtime.step_n rt 2 2 with
  | () -> Alcotest.fail "stepped an op-free body twice"
  | exception Invalid_argument _ -> ());
  check "op-free body took one step" 4 (Runtime.clock rt);
  check_bool "all done" true (Runtime.all_done rt)

(* A million same-pid steps inside the handler run in constant stack:
   each one resumes the fiber by a tail call. The stack limit is cut to
   1 MB for the run, far below what a frame per step would need. *)
let step_n_constant_stack () =
  let steps = 1_000_000 in
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let c = Memory.global mem ~name:"x" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ ->
        for _ = 1 to steps do
          ignore (Proc.faa c 1)
        done)
  in
  let g = Gc.get () in
  Gc.set { g with Gc.stack_limit = 1 lsl 17 };
  Fun.protect
    ~finally:(fun () -> Gc.set g)
    (fun () -> Runtime.step_n rt 1 steps);
  check "clock" steps (Runtime.clock rt);
  check "every op ran" steps (Memory.peek c);
  check_bool "finished on the last step" true (Runtime.all_done rt)

(* --- Schedules --- *)

let drive schedule rt = Runtime.run rt schedule

let round_robin_is_fair () =
  let mem = Memory.create ~model:Memory.Cc ~n:3 in
  let c = Memory.global mem ~name:"x" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ ->
        for _ = 1 to 4 do
          ignore (Proc.faa c 1)
        done)
  in
  drive (Schedule.round_robin ()) rt;
  check "all work done" 12 (Memory.peek c);
  check "equal steps p1" 4 (Memory.steps mem ~pid:1);
  check "equal steps p3" 4 (Memory.steps mem ~pid:3)

let of_list_skips_finished () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"x" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
        if pid = 1 then ignore (Proc.faa c 1))
  in
  (* p1 finishes after one step; later "Step 1" decisions are skipped. *)
  drive (Schedule.of_list Schedule.[ Step 1; Step 1; Step 2 ]) rt;
  check "p1 work" 1 (Memory.peek c);
  check_bool "all done" true (Runtime.all_done rt)

let with_crashes_cadence () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let c = Memory.global mem ~name:"x" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ ->
        for _ = 1 to 100 do
          ignore (Proc.faa c 1)
        done)
  in
  let sched =
    Schedule.stop_after 50 (Schedule.with_crashes ~every:9 (Schedule.round_robin ()))
  in
  drive sched rt;
  check "crashes injected every 10th decision" 5 (Runtime.crashes rt)

let uniform_is_deterministic_per_seed () =
  let run seed =
    let mem = Memory.create ~model:Memory.Cc ~n:3 in
    let c = Memory.global mem ~name:"x" 0 in
    let rt =
      Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
          for _ = 1 to 10 do
            ignore (Proc.faa c pid)
          done)
    in
    drive (Schedule.stop_after 20 (Schedule.uniform ~seed)) rt;
    (Memory.steps mem ~pid:1, Memory.steps mem ~pid:2, Memory.steps mem ~pid:3)
  in
  Alcotest.(check bool) "same seed same run" true (run 7 = run 7);
  Alcotest.(check bool)
    "different seeds eventually differ" true
    (List.exists (fun s -> run s <> run 7) [ 8; 9; 10; 11 ])

(* The runnable-set view makes the decisions and RNG draws the list
   interface made: the list versions, kept here as the reference, and
   the library's schedules pick the same pid from the same seed over a
   sequence of random runnable sets. *)
let view_decisions_match_lists () =
  let list_uniform rng pids = List.nth pids (Random.State.int rng (List.length pids)) in
  let list_geometric rng p pids =
    let rec pick = function
      | [ pid ] -> pid
      | pid :: rest -> if Random.State.float rng 1.0 < p then pid else pick rest
      | [] -> assert false
    in
    pick pids
  in
  let list_round_robin last pids =
    let next =
      match List.find_opt (fun pid -> pid > !last) pids with
      | Some pid -> pid
      | None -> List.hd pids
    in
    last := next;
    next
  in
  let n = 70 and seed = 3 in
  let sets = Random.State.make [| 99 |] in
  let view = Bitset.create n in
  let compare name sched reference =
    for clock = 0 to 499 do
      Bitset.clear view;
      let pids = List.filter (fun _ -> Random.State.int sets 4 = 0) (List.init n succ) in
      let pids = if pids = [] then [ 1 + Random.State.int sets n ] else pids in
      List.iter (Bitset.add view) pids;
      match sched ~clock ~enabled:view with
      | Some (Schedule.Step pid) -> check name (reference pids) pid
      | _ -> Alcotest.failf "%s: no step" name
    done
  in
  let rng = Random.State.make [| seed |] in
  compare "uniform" (Schedule.uniform ~seed) (list_uniform rng);
  let rng = Random.State.make [| seed |] in
  compare "geometric" (Schedule.geometric_bias ~seed 0.3) (list_geometric rng 0.3);
  compare "round-robin" (Schedule.round_robin ()) (list_round_robin (ref 0));
  Bitset.clear view;
  check_bool "empty set: no decision" true
    (Schedule.uniform ~seed ~clock:0 ~enabled:view = None
    && Schedule.geometric_bias ~seed 0.5 ~clock:0 ~enabled:view = None
    && Schedule.round_robin () ~clock:0 ~enabled:view = None)

(* --- Trace --- *)

let trace_records_operations () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let tr = Trace.create () in
  Trace.attach tr mem;
  let c = Memory.global mem ~name:"x" 0 in
  ignore (Memory.apply mem ~pid:1 (Memory.Write (c, 5)));
  ignore (Memory.apply mem ~pid:2 (Memory.Read c));
  Trace.record_crash tr ~epoch:2;
  ignore (Memory.apply mem ~pid:1 (Memory.Cas (c, 5, 6)));
  check "length" 4 (Trace.length tr);
  check "total" 4 (Trace.total tr);
  (match Trace.events tr with
  | [
   Trace.Op { pid = 1; op = "write"; cell = "x"; value = 5; rmr = true; _ };
   Trace.Op { pid = 2; op = "read"; value = 5; _ };
   Trace.Crash { epoch = 2; _ };
   Trace.Op { op = "cas"; value = 5 (* old value *); _ };
  ] ->
    ()
  | _ -> Alcotest.fail "wrong event sequence");
  (* Rendering must not raise and mentions the cell. *)
  let rendered = Format.asprintf "%a" (Trace.dump ?last:None) tr in
  check_bool "render nonempty" true (String.length rendered > 0)

let trace_ring_keeps_most_recent () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let tr = Trace.create ~capacity:5 () in
  Trace.attach tr mem;
  let c = Memory.global mem ~name:"x" 0 in
  for i = 1 to 12 do
    ignore (Memory.apply mem ~pid:1 (Memory.Write (c, i)))
  done;
  check "ring capped" 5 (Trace.length tr);
  check "total keeps counting" 12 (Trace.total tr);
  match Trace.events tr with
  | Trace.Op { value; seq; _ } :: _ ->
    check "oldest retained is event 8" 8 value;
    check "seq matches" 7 seq
  | _ -> Alcotest.fail "expected op events"

let trace_detach () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let tr = Trace.create () in
  Trace.attach tr mem;
  let c = Memory.global mem ~name:"x" 0 in
  ignore (Memory.apply mem ~pid:1 (Memory.Read c));
  Memory.set_tracer mem None;
  ignore (Memory.apply mem ~pid:1 (Memory.Read c));
  check "stopped recording" 1 (Trace.total tr)

(* --- Stats --- *)

let stats_summary () =
  let s = Stats.create () in
  check "empty count" 0 (Stats.count s);
  Alcotest.(check (float 0.001)) "empty mean" 0. (Stats.mean s);
  List.iter (Stats.add_int s) [ 1; 5; 3 ];
  check "count" 3 (Stats.count s);
  Alcotest.(check (float 0.001)) "mean" 3. (Stats.mean s);
  check "max" 5 (Stats.max_int s);
  Alcotest.(check (float 0.001)) "min" 1. (Stats.min s);
  let s2 = Stats.create () in
  Stats.add_int s2 10;
  let m = Stats.merge s s2 in
  check "merged count" 4 (Stats.count m);
  check "merged max" 10 (Stats.max_int m)

(* Empty accumulators must never leak the internal ±infinity sentinels —
   they used to escape through [max]/[min] and poison JSON output. *)
let stats_empty_sentinels () =
  let s = Stats.create () in
  Alcotest.(check (float 0.)) "empty max" 0. (Stats.max s);
  Alcotest.(check (float 0.)) "empty min" 0. (Stats.min s);
  check "empty max_int" 0 (Stats.max_int s);
  Alcotest.(check (float 0.)) "empty p50" 0. (Stats.percentile s 50.);
  let rendered = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check string) "empty pp" "n=0" rendered;
  (* to_json of an empty accumulator must be valid, finite JSON. *)
  ignore (Json.to_string (Stats.to_json s));
  let m = Stats.merge s (Stats.create ()) in
  Alcotest.(check (float 0.)) "merged empty max" 0. (Stats.max m)

let stats_percentiles () =
  let s = Stats.create () in
  for v = 1 to 100 do
    Stats.add_int s v
  done;
  (* Values below 64 sit in exact buckets; p100 is the exact max. *)
  Alcotest.(check (float 0.)) "p1" 1. (Stats.percentile s 1.);
  Alcotest.(check (float 0.)) "p50" 50. (Stats.percentile s 50.);
  Alcotest.(check (float 0.)) "p100" 100. (Stats.percentile s 100.);
  (* Above the exact range the quantization error stays under 12.5%. *)
  let big = Stats.create () in
  List.iter (Stats.add_int big) [ 1_000; 10_000; 100_000; 1_000_000 ];
  List.iteri
    (fun i v ->
      let p = 100. *. float_of_int (i + 1) /. 4. in
      let got = Stats.percentile big p in
      let v = float_of_int v in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within 12.5%%" p)
        true
        (got >= v && got <= v *. 1.125))
    [ 1_000; 10_000; 100_000; 1_000_000 ];
  (* merge sums the histograms, not just the summaries. *)
  let a = Stats.create () and b = Stats.create () in
  for _ = 1 to 90 do
    Stats.add_int a 1
  done;
  for _ = 1 to 10 do
    Stats.add_int b 40
  done;
  let m = Stats.merge a b in
  Alcotest.(check (float 0.)) "merged p50" 1. (Stats.percentile m 50.);
  Alcotest.(check (float 0.)) "merged p99" 40. (Stats.percentile m 99.)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "sim"
    [
      ( "encode",
        [ case "roundtrip" encode_roundtrip; case "no-collision" encode_no_collision ] );
      ( "memory-cc",
        [
          case "first-read-rmr" cc_first_read_is_rmr;
          case "per-process-cache" cc_read_cached_per_process;
          case "write-invalidates" cc_write_invalidates_all;
          case "own-write-invalidates" cc_own_write_invalidates_self;
          case "failed-cas" cc_failed_cas_is_rmr_and_invalidates;
          case "rmw-semantics" rmw_semantics;
        ] );
      ( "memory-dsm",
        [
          case "locality" dsm_locality;
          case "counters" dsm_counters;
          case "bitset-beyond-word" bitset_beyond_word;
          case "bitset-members" bitset_members;
        ] );
      ( "runtime",
        [
          case "runs-to-completion" runtime_runs_to_completion;
          case "step-is-one-op" runtime_step_is_one_op;
          case "crash-restarts" crash_restarts_with_higher_epoch;
          case "crash-preserves-nvram" crash_preserves_shared_memory;
          case "crash-loses-private" crash_loses_private_state;
          case "crash-bump" crash_bump_skips_epochs;
          case "on-crash-hooks" on_crash_hooks_fire;
          case "await-blocks" await_blocks_and_wakes;
          case "await-cheap-cc" await_spin_is_cheap_in_cc;
          case "crash-while-blocked" crash_while_blocked;
          case "reset-discontinues" reset_discontinues_fibers;
        ] );
      ( "step-n",
        [
          case "t2-mcs" (step_n_matches_steps "t2-mcs");
          case "t3-mcs" (step_n_matches_steps "t3-mcs");
          case "jjj-cc" (step_n_matches_steps "jjj-cc");
          case "jjj-dsm" (step_n_matches_steps "jjj-dsm");
          case "past-finish" step_n_past_finish;
          case "productive t2-mcs" (step_productive_matches_steps "t2-mcs");
          case "productive t3-mcs" (step_productive_matches_steps "t3-mcs");
          case "productive jjj-cc" (step_productive_matches_steps "jjj-cc");
          case "productive jjj-dsm" (step_productive_matches_steps ~fresh_blocked:false "jjj-dsm");
          case "productive-stops" step_productive_stops;
          case "constant-stack" step_n_constant_stack;
        ] );
      ( "schedule",
        [
          case "round-robin-fair" round_robin_is_fair;
          case "of-list-skips" of_list_skips_finished;
          case "crash-cadence" with_crashes_cadence;
          case "uniform-deterministic" uniform_is_deterministic_per_seed;
          case "view-matches-lists" view_decisions_match_lists;
        ] );
      ( "trace",
        [
          case "records-operations" trace_records_operations;
          case "ring-buffer" trace_ring_keeps_most_recent;
          case "detach" trace_detach;
        ] );
      ( "stats",
        [
          case "summary" stats_summary;
          case "empty-sentinels" stats_empty_sentinels;
          case "percentiles" stats_percentiles;
        ] );
    ]
