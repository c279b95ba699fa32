type model = Cc | Dsm

let pp_model ppf = function
  | Cc -> Format.pp_print_string ppf "CC"
  | Dsm -> Format.pp_print_string ppf "DSM"

let model_of_string s =
  match String.lowercase_ascii s with
  | "cc" -> Cc
  | "dsm" -> Dsm
  | s -> invalid_arg ("Memory.model_of_string: " ^ s)

(* [readers] is a bitset over process IDs (bit [pid - 1] of word
   [(pid - 1) / 62]); it tracks which processes hold a valid cached copy
   under the CC model's in-cache-read rule. [zkey] is the cell's Zobrist
   key [Encode.mix fingerprint_seed id], precomputed so a value update
   costs one {!Encode.mix} per xor side. [dirty] marks the cell as
   written since the last {!snapshot} (the dirty-set snapshot patch).
   [name] is only the diagnostic prefix; [i]/[j] are its optional
   indices (-1 when absent), formatted by {!name} on demand so that
   building a stack allocates no strings per cell. [init] is the value
   {!reset} restores: the cell's value at allocation. [touched] marks the
   cell as changed since the last {!reset} (or since allocation): its
   value, or its CC reader set, may differ from the allocation state. *)
type cell = {
  id : int;  (* dense allocation index, 0-based; keys snapshots *)
  name : string;
  i : int;
  j : int;
  home : int;
  zkey : int;
  (* Symmetry-slice assignment (DESIGN.md §5.19): [sym_owner] is 0 for
     residue cells ({!global}s — pid-independent identity) and the home
     pid for per-process cells; [sym_key] is the cell's pid-independent
     Zobrist key inside its slice — keyed by per-owner allocation order,
     not by [id], so the k-th cell of pid i and the k-th cell of pid j
     share a key and permutation-related states share slice digests. *)
  sym_owner : int;
  sym_key : int;
  mutable value : int;
  init : int;
  mutable dirty : bool;
  mutable touched : bool;
  readers : int array;
}

type t = {
  model : model;
  n : int;
  words : int;
  rmr_count : int array; (* 1-based; index 0 unused *)
  step_count : int array;
  mutable tracer : tracer option;
  (* Allocation registry: a dense growable array indexed by cell id.
     Allocation order is deterministic (cells are created by
     scenario/algorithm setup code), so two replays of the same scenario
     assign identical ids — which is what makes snapshots and
     fingerprints comparable across runs. Only the first [n_cells]
     entries are live. *)
  mutable cells : cell array;
  mutable n_cells : int;
  (* Running Zobrist digest: xor over live cells of
     [Encode.mix zkey value]. Maintained incrementally only once
     [fp_live] — flipped by the first {!fingerprint} call — so runs that
     never fingerprint (e.g. model checking with [--reduce none], or the
     forced prefix of a replay) pay nothing beyond one dead branch per
     write (DESIGN.md §5.14). *)
  mutable fp : int;
  mutable fp_live : bool;
  (* The digest of the allocation values, accumulated as cells are
     allocated ([sym_init] below is its per-owner counterpart): a resync
     starts from it and patches only the touched cells (DESIGN.md
     §5.14). *)
  mutable fp_init : int;
  (* Per-owner symmetry digests, index 0 the residue: [sym.(o)] is the
     xor over cells owned by [o] of [Encode.mix sym_key value].
     Maintained incrementally only once [sym_live] — flipped by the
     first {!sym_part} call — so everything except [--reduce sym] pays
     one dead branch per write (mirrors [fp]/[fp_live], DESIGN.md
     §5.19). [sym_slots.(o)] is the next slice-slot index for owner [o]
     (drives [sym_key] assignment at allocation). *)
  sym : int array;
  mutable sym_live : bool;
  sym_init : int array;
  sym_slots : int array;
  (* Dirty-set snapshot support: [snap] holds the values as of the last
     {!snapshot} call; [dirty_ids]'s first [n_dirty] entries are the ids
     written since, so the next snapshot patches only those. *)
  mutable snap : int array;
  mutable dirty_ids : int array;
  mutable n_dirty : int;
  (* The first [n_touched] entries of [touched_ids] are the cells whose
     [touched] flag is set, so {!reset} and the digest resyncs cost
     O(touched cells), not O(cells). *)
  mutable touched_ids : int array;
  mutable n_touched : int;
  (* RMR flag of the most recent [exec_*] call; lets {!apply} return the
     (result, rmr) pair without the fast paths boxing a tuple. *)
  mutable last_rmr : bool;
  (* In-place reuse ({!reset}): the first reset seals the memory — no
     cell or restore may be added afterwards — and every reset runs
     [restores], the callbacks that OCaml state built over this memory
     registered, in registration order. *)
  mutable sealed : bool;
  mutable restores : (unit -> unit) list;
}

and tracer = pid:int -> op -> result:int -> rmr:bool -> unit

and op =
  | Read of cell
  | Write of cell * int
  | Cas of cell * int * int
  | Fas of cell * int
  | Faa of cell * int
  | Fasas of cell * int * cell

let bits_per_word = 62

let create ~model ~n =
  if n < 1 then invalid_arg "Memory.create: n must be >= 1";
  {
    model;
    n;
    words = ((n - 1) / bits_per_word) + 1;
    rmr_count = Array.make (n + 1) 0;
    step_count = Array.make (n + 1) 0;
    tracer = None;
    cells = [||];
    n_cells = 0;
    fp = 0;
    fp_live = false;
    fp_init = 0;
    sym = Array.make (n + 1) 0;
    sym_live = false;
    sym_init = Array.make (n + 1) 0;
    sym_slots = Array.make (n + 1) 0;
    snap = [||];
    dirty_ids = Array.make 8 0;
    n_dirty = 0;
    touched_ids = Array.make 8 0;
    n_touched = 0;
    last_rmr = false;
    sealed = false;
    restores = [];
  }

let set_tracer t tracer = t.tracer <- tracer

let model t = t.model
let n t = t.n

let grow ids =
  let bigger = Array.make (2 * Array.length ids) 0 in
  Array.blit ids 0 bigger 0 (Array.length ids);
  bigger

let push_dirty t id =
  if t.n_dirty = Array.length t.dirty_ids then t.dirty_ids <- grow t.dirty_ids;
  t.dirty_ids.(t.n_dirty) <- id;
  t.n_dirty <- t.n_dirty + 1

let[@inline] touch t c =
  if not c.touched then begin
    c.touched <- true;
    if t.n_touched = Array.length t.touched_ids then
      t.touched_ids <- grow t.touched_ids;
    t.touched_ids.(t.n_touched) <- c.id;
    t.n_touched <- t.n_touched + 1
  end

(* Residue cells keep a distinct negative-keyed domain ([lnot id]) so a
   global and a slice cell can never share a [sym_key]; slice cells are
   keyed by their per-owner allocation slot, which is what lines the
   k-th cell of every pid up under relabeling. *)
let alloc t ~name ~i ~j ~home ~sym_owner init =
  if t.sealed then invalid_arg "Memory.cell: memory already sealed by reset";
  if home < 1 || home > t.n then invalid_arg "Memory.cell: bad home";
  if i < -1 || j < -1 || (i = -1 && j >= 0) then
    invalid_arg "Memory.cell: bad name index";
  let id = t.n_cells in
  let sym_key =
    if sym_owner = 0 then Encode.mix Encode.sym_seed (lnot id)
    else begin
      let slot = t.sym_slots.(sym_owner) in
      t.sym_slots.(sym_owner) <- slot + 1;
      Encode.mix Encode.sym_seed slot
    end
  in
  let c =
    {
      id;
      name;
      i;
      j;
      home;
      zkey = Encode.mix Encode.fingerprint_seed id;
      sym_owner;
      sym_key;
      value = init;
      init;
      dirty = true;
      touched = false;
      readers = Array.make t.words 0;
    }
  in
  let cap = Array.length t.cells in
  if id = cap then begin
    let bigger = Array.make (max 8 (2 * cap)) c in
    Array.blit t.cells 0 bigger 0 cap;
    t.cells <- bigger
  end;
  t.cells.(id) <- c;
  t.n_cells <- id + 1;
  push_dirty t id;
  let z = Encode.mix c.zkey init and zs = Encode.mix sym_key init in
  t.fp_init <- t.fp_init lxor z;
  t.sym_init.(sym_owner) <- t.sym_init.(sym_owner) lxor zs;
  if t.fp_live then t.fp <- t.fp lxor z;
  if t.sym_live then t.sym.(sym_owner) <- t.sym.(sym_owner) lxor zs;
  c

let cell t ~name ?(i = -1) ?(j = -1) ~home init =
  alloc t ~name ~i ~j ~home ~sym_owner:home init

let global t ~name ?(i = -1) ?(j = -1) init =
  alloc t ~name ~i ~j ~home:1 ~sym_owner:0 init

let name c =
  if c.i < 0 then c.name
  else if c.j < 0 then Printf.sprintf "%s[%d]" c.name c.i
  else Printf.sprintf "%s[%d][%d]" c.name c.i c.j

let home c = c.home
let id c = c.id
let peek c = c.value

let cell_count t = t.n_cells

let iter_cells t f =
  for k = 0 to t.n_cells - 1 do
    f t.cells.(k)
  done

let snapshot t =
  if Array.length t.snap < t.n_cells then begin
    let bigger = Array.make (max 8 (2 * t.n_cells)) 0 in
    Array.blit t.snap 0 bigger 0 (Array.length t.snap);
    t.snap <- bigger
  end;
  for k = 0 to t.n_dirty - 1 do
    let i = t.dirty_ids.(k) in
    let c = t.cells.(i) in
    t.snap.(i) <- c.value;
    c.dirty <- false
  done;
  t.n_dirty <- 0;
  Array.sub t.snap 0 t.n_cells

(* Reader sets are deliberately excluded from the digest: they feed the
   CC RMR *accounting* only and can never change control flow, so two
   states differing only in cache residency have identical futures. An
   untouched cell holds its allocation value, so a resync starts from the
   allocation digest and swaps the contribution of touched cells only. *)
let resync t =
  let acc = ref t.fp_init in
  for k = 0 to t.n_touched - 1 do
    let c = t.cells.(t.touched_ids.(k)) in
    acc := !acc lxor Encode.mix c.zkey c.init lxor Encode.mix c.zkey c.value
  done;
  t.fp <- !acc;
  t.fp_live <- true

let fingerprint t =
  if not t.fp_live then resync t;
  Encode.mix (Encode.mix Encode.fingerprint_seed t.n_cells) t.fp

let sym_resync t =
  Array.blit t.sym_init 0 t.sym 0 (Array.length t.sym);
  for k = 0 to t.n_touched - 1 do
    let c = t.cells.(t.touched_ids.(k)) in
    let o = c.sym_owner in
    t.sym.(o) <-
      t.sym.(o) lxor Encode.mix c.sym_key c.init lxor Encode.mix c.sym_key c.value
  done;
  t.sym_live <- true

let sym_part t k =
  if not t.sym_live then sym_resync t;
  t.sym.(k)

let fingerprint_slow t =
  let acc = ref 0 in
  for i = 0 to t.n_cells - 1 do
    let c = t.cells.(i) in
    acc := !acc lxor Encode.zobrist c.id c.value
  done;
  Encode.mix (Encode.mix Encode.fingerprint_seed t.n_cells) !acc

(* Every value mutation funnels through here: xor the old Zobrist
   contribution out of the running digest and the new one in (when
   maintenance is live), and mark the cell for the next snapshot patch
   and the next reset. A same-value store is a no-op for all three — the
   digest, the snapshot and the reset depend on values only. *)
let[@inline] set_value t c v =
  if v <> c.value then begin
    if t.fp_live then
      t.fp <- t.fp lxor Encode.mix c.zkey c.value lxor Encode.mix c.zkey v;
    if t.sym_live then begin
      let o = c.sym_owner in
      t.sym.(o) <-
        t.sym.(o) lxor Encode.mix c.sym_key c.value lxor Encode.mix c.sym_key v
    end;
    c.value <- v;
    touch t c;
    if not c.dirty then begin
      c.dirty <- true;
      push_dirty t c.id
    end
  end

let clear_readers c =
  Array.fill c.readers 0 (Array.length c.readers) 0

let on_reset t f =
  if t.sealed then
    invalid_arg "Memory.on_reset: memory already sealed by reset";
  t.restores <- t.restores @ [ f ]

(* Only touched cells can differ from their allocation state: an
   untouched cell still holds its [init] value, and its reader set has
   stayed empty since the last reset. A restored value marks the cell
   dirty like any other change, so the next [snapshot] patches it. *)
let reset t =
  t.sealed <- true;
  for k = 0 to t.n_touched - 1 do
    let c = t.cells.(t.touched_ids.(k)) in
    c.touched <- false;
    clear_readers c;
    if c.value <> c.init then begin
      c.value <- c.init;
      if not c.dirty then begin
        c.dirty <- true;
        push_dirty t c.id
      end
    end
  done;
  t.n_touched <- 0;
  Array.fill t.rmr_count 0 (t.n + 1) 0;
  Array.fill t.step_count 0 (t.n + 1) 0;
  (* Both digests go stale with the values; the next [fingerprint] /
     [sym_part] call resyncs lazily, as on a fresh memory, and with no
     cell touched yet that resync is a copy of the allocation digests. *)
  t.fp_live <- false;
  t.sym_live <- false;
  List.iter (fun f -> f ()) t.restores

let poke t c v =
  set_value t c v;
  clear_readers c

let op_name = function
  | Read _ -> "read"
  | Write _ -> "write"
  | Cas _ -> "cas"
  | Fas _ -> "fas"
  | Faa _ -> "faa"
  | Fasas _ -> "fasas"

let op_cell = function
  | Read c
  | Write (c, _)
  | Cas (c, _, _)
  | Fas (c, _)
  | Faa (c, _)
  | Fasas (c, _, _) ->
    c

let reader_mem c pid =
  let bit = pid - 1 in
  c.readers.(bit / bits_per_word) land (1 lsl (bit mod bits_per_word)) <> 0

let reader_add c pid =
  let bit = pid - 1 in
  let w = bit / bits_per_word in
  c.readers.(w) <- c.readers.(w) lor (1 lsl (bit mod bits_per_word))

(* Charging rule for one operation, per Section 2 of the paper. *)
let charge t ~pid ~(is_read : bool) c =
  match t.model with
  | Dsm -> c.home <> pid
  | Cc ->
    if is_read then begin
      let cached = reader_mem c pid in
      if not cached then begin
        reader_add c pid;
        touch t c
      end;
      not cached
    end
    else begin
      clear_readers c;
      true
    end

(* --- per-operation fast paths ---

   One function per operation, returning the bare result: the runtime's
   scheduling loop ignores the RMR flag (accounting happens here), so the
   no-tracer path boxes neither an [op] nor a result tuple. Mutation and
   charge order is load-bearing — it must match the historical [apply]
   exactly (mutate, charge the primary cell, then for FASAS charge [dst])
   or the golden trace's RMR flags would drift. *)

let[@inline] account t ~pid ~rmr =
  t.step_count.(pid) <- t.step_count.(pid) + 1;
  if rmr then t.rmr_count.(pid) <- t.rmr_count.(pid) + 1;
  t.last_rmr <- rmr

let[@inline] check_pid t pid =
  if pid < 1 || pid > t.n then invalid_arg "Memory.apply: bad pid"

let exec_read t ~pid c =
  check_pid t pid;
  let v = c.value in
  let rmr = charge t ~pid ~is_read:true c in
  account t ~pid ~rmr;
  (match t.tracer with
  | None -> ()
  | Some trace -> trace ~pid (Read c) ~result:v ~rmr);
  v

let exec_write t ~pid c v =
  check_pid t pid;
  set_value t c v;
  let rmr = charge t ~pid ~is_read:false c in
  account t ~pid ~rmr;
  (match t.tracer with
  | None -> ()
  | Some trace -> trace ~pid (Write (c, v)) ~result:v ~rmr);
  v

let exec_cas t ~pid c ~expect ~repl =
  check_pid t pid;
  let old = c.value in
  if old = expect then set_value t c repl;
  let rmr = charge t ~pid ~is_read:false c in
  account t ~pid ~rmr;
  (match t.tracer with
  | None -> ()
  | Some trace -> trace ~pid (Cas (c, expect, repl)) ~result:old ~rmr);
  old

let exec_fas t ~pid c v =
  check_pid t pid;
  let old = c.value in
  set_value t c v;
  let rmr = charge t ~pid ~is_read:false c in
  account t ~pid ~rmr;
  (match t.tracer with
  | None -> ()
  | Some trace -> trace ~pid (Fas (c, v)) ~result:old ~rmr);
  old

let exec_faa t ~pid c d =
  check_pid t pid;
  let old = c.value in
  set_value t c (old + d);
  let rmr = charge t ~pid ~is_read:false c in
  account t ~pid ~rmr;
  (match t.tracer with
  | None -> ()
  | Some trace -> trace ~pid (Faa (c, d)) ~result:old ~rmr);
  old

let exec_fasas t ~pid c v ~dst =
  check_pid t pid;
  let old = c.value in
  set_value t c v;
  set_value t dst old;
  let rmr1 = charge t ~pid ~is_read:false c in
  (* FASAS touches a second word: charge its store too. *)
  let rmr2 = charge t ~pid ~is_read:false dst in
  let rmr = rmr1 || rmr2 in
  account t ~pid ~rmr;
  (match t.tracer with
  | None -> ()
  | Some trace -> trace ~pid (Fasas (c, v, dst)) ~result:old ~rmr);
  old

let apply t ~pid op =
  let result =
    match op with
    | Read c -> exec_read t ~pid c
    | Write (c, v) -> exec_write t ~pid c v
    | Cas (c, expect, repl) -> exec_cas t ~pid c ~expect ~repl
    | Fas (c, v) -> exec_fas t ~pid c v
    | Faa (c, d) -> exec_faa t ~pid c d
    | Fasas (c, v, dst) -> exec_fasas t ~pid c v ~dst
  in
  (result, t.last_rmr)

let rmrs t ~pid = t.rmr_count.(pid)
let steps t ~pid = t.step_count.(pid)

let total_rmrs t = Array.fold_left ( + ) 0 t.rmr_count
