(* Minimal JSON: the value type shared by job files, trace lines
   and bench reports, with a hand-written parser/printer.  No JSON
   library ships in the toolchain here, so the subset needed (objects,
   arrays, strings, numbers, booleans, null) is implemented directly.
   Emission is canonical: field order is whatever the caller supplies,
   no insignificant whitespace, floats printed with %.17g so that
   parse ∘ print is the identity on every float. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* Integers print without a fractional part: stable and readable. *)
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec print_into b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> Buffer.add_string b (number_to_string f)
  | Str s -> escape_into b s
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          print_into b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_into b k;
          Buffer.add_char b ':';
          print_into b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  print_into b v;
  Buffer.contents b

(* Indented variant for files a human reads (jobs.json examples,
   bench reports). *)
let to_string_pretty v =
  let b = Buffer.create 256 in
  let pad depth = Buffer.add_string b (String.make (2 * depth) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Num _ | Str _) as v -> print_into b v
    | Arr [] -> Buffer.add_string b "[]"
    | Arr items ->
        Buffer.add_string b "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (depth + 1);
            go (depth + 1) v)
          items;
        Buffer.add_char b '\n';
        pad depth;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (depth + 1);
            escape_into b k;
            Buffer.add_string b ": ";
            go (depth + 1) v)
          fields;
        Buffer.add_char b '\n';
        pad depth;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'
               | '\\' -> Buffer.add_char b '\\'
               | '/' -> Buffer.add_char b '/'
               | 'n' -> Buffer.add_char b '\n'
               | 'r' -> Buffer.add_char b '\r'
               | 't' -> Buffer.add_char b '\t'
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape"
                   else begin
                     let hex = String.sub s (!pos + 1) 4 in
                     (match int_of_string_opt ("0x" ^ hex) with
                     | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
                     | Some _ ->
                         (* Non-ASCII escapes are not produced by this
                            module; keep them lossless enough. *)
                         Buffer.add_string b ("\\u" ^ hex)
                     | None -> fail "bad \\u escape");
                     pos := !pos + 4
                   end
               | c -> Buffer.add_char b c);
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected a value"
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or } in object"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ] in array"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_string s =
  match parse s with v -> Ok v | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let field name v =
  match member name v with
  | Some x -> x
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" name))

let to_str = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let to_num = function
  | Num f -> f
  | _ -> raise (Parse_error "expected a number")

let to_int v =
  let f = to_num v in
  if Float.is_integer f then int_of_float f
  else raise (Parse_error "expected an integer")

let to_list = function
  | Arr items -> items
  | _ -> raise (Parse_error "expected an array")
