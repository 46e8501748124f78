(** Minimal JSON emitter (no external dependencies).

    Produces machine-readable analysis results for downstream tools —
    the paper pitches its output as input to auto-tuners and compilers
    (§II-b, §V-C); this is the interchange format. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Most keys and values need no escaping; those are returned as is. *)
let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(* The C primitive behind Printf's float conversions: the same bytes,
   without interpreting a format string on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
  else if Float.is_finite f then format_float "%.17g" f
  else if Float.is_nan f then "null"
  else if f > 0. then "1e999"
  else "-1e999"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* --- parser (RFC 8259) -------------------------------------------- *)

exception Parse_error of int * string

type parser_state = { text : string; mutable pos : int }

let at_end st = st.pos >= String.length st.text

(* The byte under the cursor, read by index.  Past the end it is NUL:
   every branch that rejects NUL also rejects the end of input, and
   tells the two apart with [at_end] only to word its message. *)
let peek st =
  if st.pos < String.length st.text then String.unsafe_get st.text st.pos
  else '\000'

let advance st = st.pos <- st.pos + 1

let fail st msg = raise (Parse_error (st.pos, msg))

(* The hot loops below walk a local index and store the cursor once. *)
let skip_ws st =
  let s = st.text in
  let n = String.length s in
  let rec go i =
    if i < n then
      match String.unsafe_get s i with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | _ -> i
    else i
  in
  st.pos <- go st.pos

let expect st c =
  let x = peek st in
  if x = c then advance st
  else if at_end st then
    fail st (Printf.sprintf "expected %C, found end of input" c)
  else fail st (Printf.sprintf "expected %C, found %C" c x)

let literal st word value =
  let n = String.length word in
  let rec matches i =
    i = n || (String.unsafe_get st.text (st.pos + i) = word.[i] && matches (i + 1))
  in
  if st.pos + n <= String.length st.text && matches 0 then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

(* Encode a Unicode code point as UTF-8 into [buf]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "invalid \\u escape (expected four hex digits)"
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    if at_end st then fail st "unterminated \\u escape";
    v := (!v lsl 4) lor digit (peek st);
    advance st
  done;
  !v

(* Advance over a string's unescaped bytes.  Returns [true] on the
   closing quote (not consumed), [false] on a backslash. *)
let scan_plain st =
  let s = st.text in
  let n = String.length s in
  let rec go i =
    if i >= n then i
    else
      match String.unsafe_get s i with
      | '"' | '\\' -> i
      | c when Char.code c < 0x20 -> i
      | _ -> go (i + 1)
  in
  st.pos <- go st.pos;
  match peek st with
  | '"' -> true
  | '\\' -> false
  | _ ->
    if at_end st then fail st "unterminated string"
    else fail st "unescaped control character in string"

(* The cursor is on a backslash: decode from there through the
   closing quote into [buf]. *)
let rec decode_escaped st buf =
  advance st;
  if at_end st then fail st "unterminated escape";
  let c = peek st in
  advance st;
  (match c with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' ->
    let cp = hex4 st in
    if cp >= 0xD800 && cp <= 0xDBFF then begin
      (* high surrogate: require a \uXXXX low surrogate *)
      if
        st.pos + 1 < String.length st.text
        && st.text.[st.pos] = '\\'
        && st.text.[st.pos + 1] = 'u'
      then begin
        advance st;
        advance st;
        let lo = hex4 st in
        if lo >= 0xDC00 && lo <= 0xDFFF then
          add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
        else fail st "invalid low surrogate"
      end
      else fail st "unpaired high surrogate"
    end
    else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "unpaired low surrogate"
    else add_utf8 buf cp
  | c -> fail st (Printf.sprintf "invalid escape \\%c" c));
  let start = st.pos in
  let closed = scan_plain st in
  Buffer.add_substring buf st.text start (st.pos - start);
  if closed then advance st else decode_escaped st buf

let parse_string st =
  expect st '"';
  let start = st.pos in
  if scan_plain st then begin
    advance st;
    String.sub st.text start (st.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (st.pos - start + 16) in
    Buffer.add_substring buf st.text start (st.pos - start);
    decode_escaped st buf;
    Buffer.contents buf
  end

(* A string validated without being built; only escapes need the
   decoder (for their surrogate-pair rules). *)
let skip_string st =
  let quote = st.pos in
  expect st '"';
  if scan_plain st then advance st
  else begin
    st.pos <- quote;
    ignore (parse_string st)
  end

let digits st =
  let s = st.text in
  let n = String.length s in
  let rec go i =
    if i < n then match String.unsafe_get s i with '0' .. '9' -> go (i + 1) | _ -> i
    else i
  in
  let start = st.pos in
  st.pos <- go start;
  if st.pos = start then fail st "expected digit"

(* Advance over one number; returns whether it has a fraction or an
   exponent. *)
let scan_number st =
  if peek st = '-' then advance st;
  (match peek st with
  | '0' -> advance st
  | '1' .. '9' -> digits st
  | _ -> fail st "expected digit");
  let fraction = peek st = '.' in
  if fraction then begin
    advance st;
    digits st
  end;
  match peek st with
  | 'e' | 'E' ->
    advance st;
    (match peek st with '+' | '-' -> advance st | _ -> ());
    digits st;
    true
  | _ -> fraction

let parse_number st =
  let start = st.pos in
  let is_float = scan_number st in
  let s = String.sub st.text start (st.pos - start) in
  if is_float then Float (float_of_string s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> Float (float_of_string s)

(* The container grammar, shared by the parser and the checker: the
   cursor is on the opening bracket; [item] reads one element, [member]
   one object member from its key on. *)
let walk_array st item =
  advance st;
  skip_ws st;
  if peek st = ']' then advance st
  else
    let rec items () =
      item ();
      skip_ws st;
      match peek st with
      | ',' ->
        advance st;
        items ()
      | ']' -> advance st
      | _ -> fail st "expected ',' or ']' in array"
    in
    items ()

let walk_object st member =
  advance st;
  skip_ws st;
  if peek st = '}' then advance st
  else
    let rec members () =
      skip_ws st;
      member ();
      skip_ws st;
      match peek st with
      | ',' ->
        advance st;
        members ()
      | '}' -> advance st
      | _ -> fail st "expected ',' or '}' in object"
    in
    members ()

let colon st =
  skip_ws st;
  expect st ':'

let unexpected st =
  if at_end st then fail st "unexpected end of input"
  else fail st (Printf.sprintf "unexpected character %C" (peek st))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '"' -> String (parse_string st)
  | '-' | '0' .. '9' -> parse_number st
  | '[' ->
    let items = ref [] in
    walk_array st (fun () -> items := parse_value st :: !items);
    List (List.rev !items)
  | '{' ->
    let fields = ref [] in
    walk_object st (fun () ->
        let k = parse_string st in
        colon st;
        fields := (k, parse_value st) :: !fields);
    Obj (List.rev !fields)
  | _ -> unexpected st

let rec check_value st =
  skip_ws st;
  match peek st with
  | 'n' -> literal st "null" ()
  | 't' -> literal st "true" ()
  | 'f' -> literal st "false" ()
  | '"' -> skip_string st
  | '-' | '0' .. '9' -> ignore (scan_number st)
  | '[' -> walk_array st (fun () -> check_value st)
  | '{' ->
    walk_object st (fun () ->
        skip_string st;
        colon st;
        check_value st)
  | _ -> unexpected st

let run value text =
  let st = { text; pos = 0 } in
  match value st with
  | v ->
    skip_ws st;
    if st.pos < String.length text then
      Error (Printf.sprintf "byte %d: trailing input after JSON value" st.pos)
    else Ok v
  | exception Parse_error (pos, msg) ->
    Error (Printf.sprintf "byte %d: %s" pos msg)

let of_string text = run parse_value text
let check text = run check_value text

(* --- accessors ----------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
    Some (int_of_float f)
  | _ -> None
