(* Minimal JSON values, emission and parsing — just enough for the
   observability layer (metrics files, trace exports, the artifact
   schemas) without pulling a JSON dependency into the tree. Emission
   refuses non-finite floats so a stray sentinel can never produce
   invalid JSON; the parser is a strict RFC 8259 subset (no trailing
   commas, no comments) that is only used on artifacts we emit. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- emission --- *)

let escape_to b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let float_repr x =
  if not (Float.is_finite x) then
    invalid_arg "Json: non-finite float (guard the sentinel before emitting)";
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

let to_buffer ?(pretty = false) b v =
  let indent d =
    if pretty then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * d) ' ')
    end
  in
  let rec go d = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int x -> Buffer.add_string b (string_of_int x)
    | Float x -> Buffer.add_string b (float_repr x)
    | Str s ->
      Buffer.add_char b '"';
      escape_to b s;
      Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          indent (d + 1);
          go (d + 1) x)
        xs;
      indent d;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          indent (d + 1);
          Buffer.add_char b '"';
          escape_to b k;
          Buffer.add_string b (if pretty then "\": " else "\":");
          go (d + 1) x)
        kvs;
      indent d;
      Buffer.add_char b '}'
  in
  go 0 v

let to_string ?pretty v =
  let b = Buffer.create 256 in
  to_buffer ?pretty b v;
  Buffer.contents b

(* --- parsing --- *)

exception Parse_error of string

(* Deep enough for any document this project writes (a handful of
   levels), shallow enough that the recursive descent never nears the
   stack limit and a hostile input fails at its first excess bracket. *)
let max_depth = 1024

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail ("expected " ^ word)
  in
  (* Encode a Unicode scalar value as UTF-8. *)
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  (* Exactly four hex digits: no sign, no underscore, no space. *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = 0 to 3 do
      let d =
        match s.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance ()
        | Some '\\' -> Buffer.add_char b '\\'; advance ()
        | Some '/' -> Buffer.add_char b '/'; advance ()
        | Some 'b' -> Buffer.add_char b '\b'; advance ()
        | Some 'f' -> Buffer.add_char b '\012'; advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'u' ->
          advance ();
          let cp = hex4 () in
          let is_low c = c >= 0xDC00 && c <= 0xDFFF in
          let cp =
            (* A high surrogate must be followed by an escaped low one; a
               lone surrogate has no UTF-8 encoding. *)
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
              then fail "unpaired surrogate";
              pos := !pos + 2;
              let lo = hex4 () in
              if not (is_low lo) then fail "unpaired surrogate";
              0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else if is_low cp then fail "unpaired surrogate"
            else cp
          in
          add_utf8 b cp
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  (* RFC 8259's grammar, checked by hand: OCaml's converters also take
     [01], [+1], [1.], [.5] and [1.e3]. *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      !pos > d0
    in
    let skip c = peek () = Some c && (advance (); true) in
    let integer () = ignore (skip '-'); skip '0' || digits () in
    let fraction () = (not (skip '.')) || digits () in
    let exponent () =
      (not (skip 'e' || skip 'E')) || (ignore (skip '+' || skip '-'); digits ())
    in
    let ok = integer () && fraction () && exponent () in
    let stop = !pos in
    while
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if not ok || !pos <> stop then fail ("bad number " ^ lit);
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lit with
      | Some f when Float.is_finite f -> Float f
      | _ -> fail ("bad number " ^ lit))
  in
  let nest depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d" max_depth);
    advance ();
    depth + 1
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      let depth = nest depth in
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else
        (* [member] sees only a key's first binding; refuse a second. *)
        let seen = Hashtbl.create 8 in
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          if Hashtbl.mem seen k then fail ("duplicate key " ^ k);
          Hashtbl.add seen k ();
          skip_ws ();
          expect ':';
          let v = parse_value depth in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
    | Some '[' ->
      let depth = nest depth in
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else
        let rec elements acc =
          let v = parse_value depth in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- accessors --- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

(* --- declarative schemas (one per artifact kind) --- *)

module Schema = struct
  type json = t

  (* A schema checks a value at a path ("swarm[2].outcome.runs") and
     raises [Invalid] with that path on the first mismatch; [check]
     turns the exception into a result. *)
  exception Invalid of string

  type t = string -> json -> unit
  type field = { key : string; required : bool; shape : t }
  type doc = { name : string; root : t }

  let fail path msg =
    raise (Invalid (if path = "" then msg else path ^ ": " ^ msg))

  let expect what ok : t =
   fun path v -> if not (ok v) then fail path ("expected " ^ what)

  let str = expect "a string" (function Str _ -> true | _ -> false)
  let bool = expect "a boolean" (function Bool _ -> true | _ -> false)
  let at_least show = function None -> "" | Some m -> " >= " ^ show m
  let meets min x = Option.fold ~none:true ~some:(fun m -> x >= m) min

  let int ?min () =
    expect
      ("an integer" ^ at_least string_of_int min)
      (function Int i -> meets min i | _ -> false)

  let num ?min () =
    let ok f = Float.is_finite f && meets min f in
    expect
      ("a finite number" ^ at_least (Printf.sprintf "%g") min)
      (function Int i -> ok (float_of_int i) | Float f -> ok f | _ -> false)

  let enum names =
    expect
      ("one of " ^ String.concat ", " (List.map (Printf.sprintf "%S") names))
      (function Str s -> List.mem s names | _ -> false)

  let nullable shape : t = fun path -> function Null -> () | v -> shape path v
  let index path i = Printf.sprintf "%s[%d]" path i

  let list shape : t =
   fun path -> function
    | List xs -> List.iteri (fun i x -> shape (index path i) x) xs
    | _ -> fail path "expected an array"

  let tuple shapes : t =
   fun path -> function
    | List xs when List.compare_lengths xs shapes = 0 ->
      List.iteri (fun i (shape, x) -> shape (index path i) x)
        (List.combine shapes xs)
    | _ ->
      fail path (Printf.sprintf "expected an array of %d" (List.length shapes))

  let req key shape = { key; required = true; shape }
  let opt key shape = { key; required = false; shape }

  let obj ?(where = fun _ -> None) fields : t =
   fun path -> function
    | Obj kvs as v ->
      List.iter
        (fun f ->
          match List.assoc_opt f.key kvs with
          | Some x ->
            f.shape (if path = "" then f.key else path ^ "." ^ f.key) x
          | None ->
            if f.required then fail path (Printf.sprintf "missing %S" f.key))
        fields;
      Option.iter (fail path) (where v)
    | _ -> fail path "expected an object"

  let doc ?where name fields =
    let tag path = function
      | Str s when s = name -> ()
      | Str s -> fail path (Printf.sprintf "expected %S, got %S" name s)
      | _ -> fail path "expected a string"
    in
    { name; root = obj ?where (req "schema" tag :: fields) }

  let name d = d.name

  let check d v =
    match d.root "" v with () -> Ok () | exception Invalid m -> Error m

  let same_length ~list ~count v =
    match (member list v, member count v) with
    | Some (List xs), Some (Int n) when List.length xs <> n ->
      Some
        (Printf.sprintf "%s has %d entries for %s=%d" list (List.length xs)
           count n)
    | _ -> None
end
