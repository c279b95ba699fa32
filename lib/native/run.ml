(* Why the kernel is shaped this way (the interface lists what it does):
   - the barrier is always armed, since without it a worker whose budget
     fits in one OS timeslice finishes before the next domain spawns and
     a "contended" run measures serial execution;
   - a closed window lets in-flight iterations finish, so FIFO queues
     drain instead of wedging;
   - the probe divides by the progress made between its two readings,
     so a window that closes before the warmup mark reads [None] rather
     than a budget-sized denominator over nothing. *)

type t = {
  crash : Crash.t;
  n : int;
  budget : int;
  deadline : int;  (* Clock.now_ns; max_int = no window *)
  probing : bool;
  warmup : int;
  (* Worker 1's probe, read by the main domain after the join. *)
  mutable mark : int;  (* progress at the warmup mark; -1 = not reached *)
  mutable words0 : int;
  mutable stop : int;  (* progress at the end of the loop; -1 = not yet *)
  mutable words1 : int;
  live : int Atomic.t;
  finished : int Atomic.t;
  pinned : int Atomic.t;
  mutable t0 : int;  (* Clock.now_ns when the last worker went live *)
}

type outcome = {
  elapsed : float;
  pinned : int;
  alloc_words_per_op : float option;
}

let minor_words () = int_of_float (Gc.minor_words ())

let in_window t = t.deadline = max_int || Clock.now_ns () < t.deadline

let running t = Atomic.get t.finished < t.n

let live t = Atomic.get t.live

let loop t ~pid ~progress step =
  let probing = t.probing && pid = 1 in
  while progress () < t.budget && in_window t do
    Crash.check t.crash;
    if probing && t.mark < 0 && progress () >= t.warmup then begin
      t.mark <- progress ();
      t.words0 <- minor_words ()
    end;
    step ()
  done;
  if probing && t.mark >= 0 && t.stop < 0 then begin
    t.words1 <- minor_words ();
    t.stop <- progress ()
  end

let run ?(pin = false) ?run_for ?(alloc_probe = false) ?controller ~crash ~n
    ~budget body =
  let t =
    {
      crash;
      n;
      budget;
      deadline =
        (match run_for with
        | None -> max_int
        | Some s -> Clock.now_ns () + int_of_float (s *. 1e9));
      probing = alloc_probe;
      warmup = max 1 (budget / 5);
      mark = -1;
      words0 = 0;
      stop = -1;
      words1 = 0;
      live = Atomic.make 0;
      finished = Atomic.make 0;
      pinned = Atomic.make 0;
      t0 = 0;
    }
  in
  let cores = Domain.recommended_domain_count () in
  let worker pid () =
    if pin && Pin.to_core ((pid - 1) mod cores) then Atomic.incr t.pinned;
    if Atomic.fetch_and_add t.live 1 = n - 1 then t.t0 <- Clock.now_ns ();
    while Atomic.get t.live < n do
      Domain.cpu_relax ()
    done;
    Crash.worker_run crash ~pid (body t ~pid);
    Crash.worker_done crash ~pid;
    Atomic.incr t.finished
  in
  let domains = List.init n (fun i -> Domain.spawn (worker (i + 1))) in
  Option.iter
    (fun control ->
      while Atomic.get t.live < n do
        Domain.cpu_relax ()
      done;
      control t)
    controller;
  List.iter Domain.join domains;
  {
    elapsed = float_of_int (Clock.now_ns () - t.t0) /. 1e9;
    pinned = Atomic.get t.pinned;
    alloc_words_per_op =
      (if t.mark >= 0 && t.stop > t.mark then
         Some
           (float_of_int (t.words1 - t.words0)
           /. float_of_int (t.stop - t.mark))
       else None);
  }
