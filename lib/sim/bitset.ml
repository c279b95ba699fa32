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

let[@inline] mem_words words off pid =
  let bit = pid - 1 in
  words.(off + (bit / bits_per_word)) land (1 lsl (bit mod bits_per_word)) <> 0

let mem t pid = pid >= 1 && pid <= t.n && mem_words t.words 0 pid

let width t = Array.length t.words

let store t dst off =
  for i = 0 to Array.length t.words - 1 do
    dst.(off + i) <- t.words.(i)
  done

let mem_stored = mem_words
