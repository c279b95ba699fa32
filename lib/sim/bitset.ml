(* Same layout as Memory's reader bitsets: bit [pid - 1] of word
   [(pid - 1) / 62]. *)

let bits_per_word = 62

type t = { n : int; words : int array }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { n; words = Array.make (((max n 1 - 1) / bits_per_word) + 1) 0 }

(* Loops rather than [Array.fill]/[Array.blit]: a set is one or two
   words, less than the cost of the C call. *)
let clear t =
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- 0
  done

let check t pid =
  if pid < 1 || pid > t.n then invalid_arg "Bitset: pid out of range"

let add t pid =
  check t pid;
  let bit = pid - 1 in
  let w = bit / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (bit mod bits_per_word))

let remove t pid =
  check t pid;
  let bit = pid - 1 in
  let w = bit / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (bit mod bits_per_word))

let[@inline] mem_words words off pid =
  let bit = pid - 1 in
  words.(off + (bit / bits_per_word)) land (1 lsl (bit mod bits_per_word)) <> 0

let mem t pid = pid >= 1 && pid <= t.n && mem_words t.words 0 pid

(* --- members in ascending order ---

   Word-parallel popcount over the 62 used bits (the masks fit OCaml's
   63-bit ints), and the index of a word's lowest set bit as the
   popcount of the bits below it. *)

let popcount w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  let w = w + (w lsr 8) in
  let w = w + (w lsr 16) in
  (w + (w lsr 32)) land 0x7f

let[@inline] lowest w = popcount ((w land (-w)) - 1)

let is_empty t =
  let i = ref 0 and len = Array.length t.words in
  while !i < len && t.words.(!i) = 0 do
    incr i
  done;
  !i = len

let cardinal t =
  let c = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    c := !c + popcount t.words.(i)
  done;
  !c

let next t p =
  if p >= t.n then 0
  else begin
    let p = max p 0 in
    let i = ref (p / bits_per_word) in
    let w = ref (t.words.(!i) land (-1 lsl (p mod bits_per_word))) in
    while !w = 0 && !i < Array.length t.words - 1 do
      incr i;
      w := t.words.(!i)
    done;
    if !w = 0 then 0 else (!i * bits_per_word) + lowest !w + 1
  end

let nth t k =
  if k < 0 then invalid_arg "Bitset.nth";
  let i = ref 0 and k = ref k in
  let last = Array.length t.words - 1 in
  while !i <= last && !k >= popcount t.words.(!i) do
    k := !k - popcount t.words.(!i);
    incr i
  done;
  if !i > last then invalid_arg "Bitset.nth";
  let w = ref t.words.(!i) in
  for _ = 1 to !k do
    w := !w land (!w - 1)
  done;
  (!i * bits_per_word) + lowest !w + 1

let width t = Array.length t.words

let store t dst off =
  for i = 0 to Array.length t.words - 1 do
    dst.(off + i) <- t.words.(i)
  done

let mem_stored = mem_words
