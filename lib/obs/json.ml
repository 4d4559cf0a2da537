type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the raw string.                     *)

exception Fail of int * string

let parse_sub s pos0 =
  let n = String.length s in
  let pos = ref pos0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when Char.equal c d -> advance ()
    | _ -> fail (Fmt.str "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      v
    end
    else fail (Fmt.str "expected %s" word)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; advance ()
             | '\\' -> Buffer.add_char b '\\'; advance ()
             | '/' -> Buffer.add_char b '/'; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'f' -> Buffer.add_char b '\012'; advance ()
             | 'u' ->
                 advance ();
                 if !pos + 4 > n then fail "truncated \\u escape";
                 let code =
                   (hex_digit s.[!pos] * 4096)
                   + (hex_digit s.[!pos + 1] * 256)
                   + (hex_digit s.[!pos + 2] * 16)
                   + hex_digit s.[!pos + 3]
                 in
                 pos := !pos + 4;
                 (* The exporters only \u-escape control characters; emit
                    the raw byte for the BMP-latin range and '?' beyond
                    (traces never contain the latter). *)
                 if code < 0x100 then Buffer.add_char b (Char.chr code)
                 else Buffer.add_char b '?'
             | c -> fail (Fmt.str "bad escape \\%c" c));
          go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
          advance ()
        done
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if String.equal text "" || String.equal text "-" then fail "bad number";
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields (f :: acc)
            | Some '}' -> advance (); Obj (List.rev (f :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
        end
    | Some c -> (
        match c with
        | '-' | '0' .. '9' -> parse_number ()
        | _ -> fail (Fmt.str "unexpected %C" c))
  in
  let v = parse_value () in
  skip_ws ();
  (v, !pos)

let parse s =
  match parse_sub s 0 with
  | v, stop when stop = String.length s -> Ok v
  | _, stop -> Error (Fmt.str "trailing garbage at offset %d" stop)
  | exception Fail (pos, msg) -> Error (Fmt.str "at offset %d: %s" pos msg)

let parse_lines s =
  let lines = String.split_on_char '\n' s in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.equal (String.trim line) "" then go (i + 1) acc rest
        else
          (match parse line with
          | Ok v -> go (i + 1) (v :: acc) rest
          | Error e -> Error (Fmt.str "line %d: %s" i e))
  in
  go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Fmt.str "%.0f" v else Fmt.str "%.17g" v

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float v -> Buffer.add_string b (float_repr v)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  write b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let entries = function Obj fields -> fields | _ -> []
