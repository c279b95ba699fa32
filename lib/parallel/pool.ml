(* Domain pool: a mutex-guarded FIFO of closures, [jobs - 1] worker
   domains, and per-future completion state broadcast over one pool-wide
   condition variable. Task granularity (one full simulator run) makes
   finer-grained structures pointless; see pool.mli and DESIGN.md §5. *)

type t = {
  jobs : int;
  lock : Mutex.t;
  wake : Condition.t;  (* new work, completion, or shutdown *)
  queue : (unit -> unit) Queue.t;  (* type-erased task wrappers *)
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

type 'a state =
  | Pending of (unit -> 'a)  (* queued, not yet picked up *)
  | Running
  | Done of 'a
  | Failed of exn

type 'a future = { pool : t; mutable state : 'a state }
(* [state] is only read or written under [pool.lock] (except on jobs = 1
   pools, which have no other domain). *)

let default_jobs () = Domain.recommended_domain_count ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let rec worker t =
  let job =
    locked t (fun () ->
        let rec next () =
          match Queue.take_opt t.queue with
          | Some j -> Some j
          | None ->
            if t.closed then None
            else begin
              Condition.wait t.wake t.lock;
              next ()
            end
        in
        next ())
  in
  match job with
  | None -> ()
  | Some j ->
    j ();
    worker t

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      lock = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let run_task fut f =
  (* Runs outside the lock; publish the result under it. *)
  let st = match f () with v -> Done v | exception e -> Failed e in
  locked fut.pool (fun () ->
      fut.state <- st;
      Condition.broadcast fut.pool.wake)

let async t f =
  if t.jobs <= 1 then
    (* Inline, eager: the exact sequential path, in submission order. *)
    { pool = t; state = (match f () with v -> Done v | exception e -> Failed e) }
  else begin
    let fut = { pool = t; state = Pending f } in
    locked t (fun () ->
        if t.closed then invalid_arg "Pool.async: pool is shut down";
        Queue.add
          (fun () ->
            (* Claim the task; an awaiter may have run it inline in the
               meantime. *)
            let claimed =
              locked t (fun () ->
                  match fut.state with
                  | Pending f ->
                    fut.state <- Running;
                    Some f
                  | Running | Done _ | Failed _ -> None)
            in
            match claimed with None -> () | Some f -> run_task fut f)
          t.queue;
        (* Broadcast, not signal: awaiters and idle workers park on the
           same condition variable, so a signal could wake an awaiter
           (which just re-checks its future and sleeps again) instead of
           an idle worker, leaving the queued task stranded until the
           next completion broadcast. *)
        Condition.broadcast t.wake);
    fut
  end

let await fut =
  let t = fut.pool in
  let inline =
    if t.jobs <= 1 then None
    else
      locked t (fun () ->
          let rec wait () =
            match fut.state with
            | Done _ | Failed _ -> None
            | Pending f ->
              (* Not started: run it ourselves rather than wait for a
                 worker. *)
              fut.state <- Running;
              Some f
            | Running ->
              Condition.wait t.wake t.lock;
              wait ()
          in
          wait ())
  in
  (match inline with Some f -> run_task fut f | None -> ());
  match fut.state with
  | Done v -> v
  | Failed e -> raise e
  | Pending _ | Running -> assert false

let map t f xs =
  let futs = List.map (fun x -> async t (fun () -> f x)) xs in
  (* Await everything (so no task outlives the call), then re-raise the
     first failure in [xs] order. *)
  let results =
    List.map (fun fut -> match await fut with v -> Ok v | exception e -> Error e)
      futs
  in
  List.map (function Ok v -> v | Error e -> raise e) results

let shutdown t =
  if t.jobs > 1 then begin
    locked t (fun () ->
        if not t.closed then begin
          t.closed <- true;
          Queue.clear t.queue;
          Condition.broadcast t.wake
        end);
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
