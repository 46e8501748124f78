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
  | Raw of string

(* A growable byte buffer whose bytes are reachable: a socket write
   or read can use them in place, and [check_buf] scans them, where
   [Stdlib.Buffer] would copy them out first.  The writer below targets
   it; its adds are as cheap as [Buffer]'s. *)
module Buf = struct
  (* [cap] is [Bytes.length bytes], kept in the record: the adds
     compare against it on every call, and reading a block's length
     from its header costs more than reading a field. *)
  type t = { mutable bytes : Bytes.t; mutable cap : int; mutable length : int }

  let create n =
    let cap = max 16 n in
    { bytes = Bytes.create cap; cap; length = 0 }

  let length b = b.length
  let bytes b = b.bytes
  let clear b = b.length <- 0

  let truncate b n =
    if n < 0 || n > b.length then invalid_arg "Json.Buf.truncate";
    b.length <- n

  (* Doubles the capacity until [more] bytes fit past the content. *)
  let reserve b more =
    let need = b.length + more in
    if need > b.cap then begin
      let cap = ref b.cap in
      while !cap < need do
        cap := 2 * !cap
      done;
      let bytes = Bytes.create !cap in
      Bytes.blit b.bytes 0 bytes 0 b.length;
      b.bytes <- bytes;
      b.cap <- !cap
    end

  let advance b n =
    if n < 0 || b.length + n > b.cap then invalid_arg "Json.Buf.advance";
    b.length <- b.length + n

  let add_char b c =
    let n = b.length in
    if n >= b.cap then reserve b 1;
    Bytes.unsafe_set b.bytes n c;
    b.length <- n + 1

  let add_string b s =
    let m = String.length s and n = b.length in
    if n + m > b.cap then reserve b m;
    Bytes.unsafe_blit_string s 0 b.bytes n m;
    b.length <- n + m

  let add_subbytes b src pos m =
    let n = b.length in
    if n + m > b.cap then reserve b m;
    Bytes.unsafe_blit src pos b.bytes n m;
    b.length <- n + m

  let sub_string b pos n =
    if pos < 0 || n < 0 || pos + n > b.length then
      invalid_arg "Json.Buf.sub_string";
    Bytes.sub_string b.bytes pos n
end

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec clean s i =
  i >= String.length s
  || ((not (needs_escape (String.unsafe_get s i))) && clean s (i + 1))

(* Most keys and values need no escaping; those are returned as is. *)
let escape s =
  if clean s 0 then s
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

(* --- floats ---------------------------------------------------------- *)

(* The C primitive behind Printf's float conversions: the printer below
   falls back to it outside its ranges, and the tests use it as the
   oracle. *)
external format_float : string -> float -> string = "caml_format_float"

(* The printer writes into a scratch [Bytes.t] of [scratch] bytes and
   returns the text's length; the digits of "%.17g" are first written
   at [digits_at], past the longest text (23 bytes), and then laid
   out. *)
let scratch = 48
let digits_at = 24

let pow10 =
  let a = Array.make 18 1 in
  for k = 1 to 17 do a.(k) <- 10 * a.(k - 1) done;
  a

(* "00" .. "99": digits go out two per division. *)
let pairs =
  String.init 200 (fun i ->
      Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* Writes the decimal digits of [n] (0 <= n < 10^17) ending just
   before [stop]. *)
let rec put_digits b stop n =
  if n >= 10 then begin
    let q = n / 100 in
    let r = 2 * (n - (q * 100)) in
    Bytes.unsafe_set b (stop - 1) (String.unsafe_get pairs (r + 1));
    Bytes.unsafe_set b (stop - 2) (String.unsafe_get pairs r);
    if q > 0 then put_digits b (stop - 2) q
  end
  else Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + n))

let rec ndigits n k = if k < 17 && n >= pow10.(k) then ndigits n (k + 1) else k

(* An integer-valued [x] with |x| < 10^17: its digits, then ".0" when
   [point] ("%.1f") and nothing otherwise ("%.17g"). *)
let put_integral b x point =
  let n = int_of_float (Float.abs x) in
  let o = if Float.sign_bit x then (Bytes.unsafe_set b 0 '-'; 1) else 0 in
  let stop = o + ndigits n 1 in
  put_digits b stop n;
  if point then begin
    Bytes.unsafe_set b stop '.';
    Bytes.unsafe_set b (stop + 1) '0';
    stop + 2
  end
  else stop

let pow5 =
  let a = Array.make 27 1 in
  for k = 1 to 26 do a.(k) <- 5 * a.(k - 1) done;
  a

let mask31 = 0x7FFF_FFFF

(* The bits of limb [x] (at bit offset [off]) from bit [b] up, and
   whether any of its bits lie below [b].  A limb 63 or more bits
   above [b] is zero, since the quotient fits an int. *)
let above x off b =
  if off < b then (if b - off >= 31 then 0 else x lsr (b - off))
  else if off - b < 63 then x lsl (off - b)
  else 0

let below x off b =
  off < b && (if b - off >= 31 then x <> 0 else x land ((1 lsl (b - off)) - 1) <> 0)

(* m * 5^k / 2^s for m < 2^53, k <= 26 and s >= 1, whose quotient fits
   an int: twice the floor, plus 1 when round-half-even rounds up.  The
   product is kept in four 31-bit limbs at bit offsets 0, 31, 62 and
   93; every partial product fits 62 bits because 5^26 < 2^61.  The
   limbs' bit ranges are disjoint, so shifting each one and adding is
   the shift of the whole. *)
let scaled m k s =
  let p = pow5.(k) in
  let m0 = m land mask31 and m1 = m lsr 31 in
  let p0 = p land mask31 and p1 = p lsr 31 in
  let t = m0 * p0 in
  let n0 = t land mask31 in
  let t = (t lsr 31) + (m0 * p1) + (m1 * p0) in
  let n1 = t land mask31 in
  let t = (t lsr 31) + (m1 * p1) in
  let n2 = t land mask31 and n3 = t lsr 31 in
  (* [b] is the rounding bit: [q] is the floor shifted one bit less *)
  let b = s - 1 in
  let q = above n0 0 b + above n1 31 b + above n2 62 b + above n3 93 b in
  if
    q land 1 = 1
    && (q land 2 = 2 || below n0 0 b || below n1 31 b || below n2 62 b
       || below n3 93 b)
  then q
  else q land lnot 1

(* x * 10^(16 - e10) for x = m * 2^e, in [scaled]'s form. *)
let decimal m e e10 =
  let k = 16 - e10 in
  let s = -(e + k) in
  if s <= 0 then (m * pow5.(k)) lsl (1 - s) else scaled m k s

let ten16 = pow10.(16)

(* "%.17g" of a finite non-integer [x] with 1e-10 <= |x| < 2^52: the
   17 significant digits are round-half-even (x * 10^(16 - e10)) for
   the decimal exponent [e10], computed exactly, then laid out as %g
   lays them out: fixed notation for -4 <= e10 < 17, otherwise
   d.ddd...e-XX, trailing zeros dropped either way. *)
let put_significant b x =
  let bits = Int64.bits_of_float x in
  let m = (Int64.to_int bits land 0xF_FFFF_FFFF_FFFF) lor (1 lsl 52) in
  let e = ((Int64.to_int (Int64.shift_right_logical bits 52)) land 0x7FF) - 1075 in
  (* x = m * 2^e with 2^52 <= m < 2^53, so floor (log10 x) is [guess]
     or, when the floor has only 16 digits, one less. *)
  let guess = ((e + 53) * 78913) asr 18 in
  let r = decimal m e guess in
  let high = r lsr 1 >= ten16 in
  let e10 = if high then guess else guess - 1 in
  let r = if high then r else decimal m e e10 in
  (* Rounding never carries the digits to 10^17 (and [e10] up) here:
     that needs x within 5e-18 (relative) below a power of ten, and no
     double in this range is that close to one. *)
  put_digits b (digits_at + 17) ((r lsr 1) + (r land 1));
  let rec trim i = if Bytes.unsafe_get b (i - 1) = '0' then trim (i - 1) else i in
  let n = trim (digits_at + 17) - digits_at in
  let o = if x < 0. then (Bytes.unsafe_set b 0 '-'; 1) else 0 in
  if e10 >= 0 then begin
    (* the integer part, then the fraction if a digit is left *)
    Bytes.blit b digits_at b o (e10 + 1);
    let o = o + e10 + 1 and frac = n - e10 - 1 in
    if frac <= 0 then o
    else begin
      Bytes.unsafe_set b o '.';
      Bytes.blit b (digits_at + e10 + 1) b (o + 1) frac;
      o + 1 + frac
    end
  end
  else if e10 >= -4 then begin
    Bytes.unsafe_set b o '0';
    Bytes.unsafe_set b (o + 1) '.';
    Bytes.fill b (o + 2) (-e10 - 1) '0';
    let o = o + 1 - e10 in
    Bytes.blit b digits_at b o n;
    o + n
  end
  else begin
    Bytes.unsafe_set b o (Bytes.unsafe_get b digits_at);
    let o =
      if n > 1 then begin
        Bytes.unsafe_set b (o + 1) '.';
        Bytes.blit b (digits_at + 1) b (o + 2) (n - 1);
        o + 1 + n
      end
      else o + 1
    in
    (* C prints at least two exponent digits: e-05 .. e-10 *)
    Bytes.unsafe_set b o 'e';
    Bytes.unsafe_set b (o + 1) '-';
    Bytes.unsafe_set b (o + 2) (Char.unsafe_chr (48 + (-e10 / 10)));
    Bytes.unsafe_set b (o + 3) (Char.unsafe_chr (48 + (-e10 mod 10)));
    o + 4
  end

(* "%.17g" into [b]; -1 when [x] is outside the fast ranges (NaN and
   the infinities included). *)
let put_g17 b x =
  let a = Float.abs x in
  if a < 1e17 && Float.is_integer x then put_integral b x false
  else if a >= 1e-10 && a < 1e17 then put_significant b x
  else -1

(* [float_repr] into [b]; -1 when [slow_repr] must print it. *)
let put_repr b f =
  if Float.is_integer f && Float.abs f < 1e15 then put_integral b f true
  else put_g17 b f

let slow_repr f =
  if Float.is_finite f then format_float "%.17g" f
  else if Float.is_nan f then "null"
  else if f > 0. then "1e999"
  else "-1e999"

let float_g17 x =
  let b = Bytes.create scratch in
  let n = put_g17 b x in
  if n < 0 then format_float "%.17g" x else Bytes.sub_string b 0 n

let float_repr f =
  let b = Bytes.create scratch in
  let n = put_repr b f in
  if n < 0 then slow_repr f else Bytes.sub_string b 0 n

let add_float buf f =
  let b = Bytes.create scratch in
  let n = put_repr b f in
  if n < 0 then Buf.add_string buf (slow_repr f) else Buf.add_subbytes buf b 0 n

let add_int buf i =
  if i >= 0 && i < pow10.(17) then begin
    let b = Bytes.create 17 in
    let n = ndigits i 1 in
    put_digits b n i;
    Buf.add_subbytes buf b 0 n
  end
  else Buf.add_string buf (string_of_int i)

(* Direct recursion rather than [List.iteri]: no closure per
   container on the reply path. *)
let rec write buf = function
  | Null -> Buf.add_string buf "null"
  | Bool b -> Buf.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | Raw s -> Buf.add_string buf s
  | String s -> write_string buf s
  | List [] -> Buf.add_string buf "[]"
  | List (x :: l) ->
    Buf.add_char buf '[';
    write buf x;
    write_items buf l;
    Buf.add_char buf ']'
  | Obj [] -> Buf.add_string buf "{}"
  | Obj (kv :: fields) ->
    Buf.add_char buf '{';
    write_member buf kv;
    write_members buf fields;
    Buf.add_char buf '}'

and write_string buf s =
  Buf.add_char buf '"';
  Buf.add_string buf (escape s);
  Buf.add_char buf '"'

and write_items buf = function
  | [] -> ()
  | x :: l ->
    Buf.add_char buf ',';
    write buf x;
    write_items buf l

and write_member buf (k, v) =
  write_string buf k;
  Buf.add_char buf ':';
  write buf v

and write_members buf = function
  | [] -> ()
  | kv :: l ->
    Buf.add_char buf ',';
    write_member buf kv;
    write_members buf l

let to_string t =
  let buf = Buf.create 256 in
  write buf t;
  Buf.sub_string buf 0 (Buf.length buf)

(* --- parser (RFC 8259) -------------------------------------------- *)

exception Parse_error of int * string

(* The text is [text]'s first [len] bytes: all of a string, or the
   content of a {!Buf.t}. *)
type parser_state = { text : string; len : int; mutable pos : int }

let at_end st = st.pos >= st.len

(* The byte under the cursor, read by index.  Past the end it is NUL:
   every branch that rejects NUL also rejects the end of input, and
   tells the two apart with [at_end] only to word its message. *)
let peek st =
  if st.pos < st.len then String.unsafe_get st.text st.pos else '\000'

let advance st = st.pos <- st.pos + 1

let fail st msg = raise (Parse_error (st.pos, msg))

(* The hot loops below are top-level functions over the text, its
   end and a local index, storing the cursor once.  A local recursive
   function would capture the text, and without flambda that
   allocates a closure on every call, which a scan makes per token. *)
let rec ws_end s n i =
  if i < n then
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> ws_end s n (i + 1)
    | _ -> i
  else i

let skip_ws st = st.pos <- ws_end st.text st.len st.pos

let expect st c =
  let x = peek st in
  if x = c then advance st
  else if at_end st then
    fail st (Printf.sprintf "expected %C, found end of input" c)
  else fail st (Printf.sprintf "expected %C, found %C" c x)

(* [word] from byte [i] on occurs in [s] at [pos + i]. *)
let rec matches s pos word i =
  i = String.length word
  || String.unsafe_get s (pos + i) = String.unsafe_get word i
     && matches s pos word (i + 1)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= st.len && matches st.text st.pos word 0
  then begin
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
let rec plain_end s n i =
  if i >= n then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | c when Char.code c < 0x20 -> i
    | _ -> plain_end s n (i + 1)

let scan_plain st =
  st.pos <- plain_end st.text st.len st.pos;
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
        st.pos + 1 < st.len
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

let rec digits_end s n i =
  if i < n then
    match String.unsafe_get s i with '0' .. '9' -> digits_end s n (i + 1) | _ -> i
  else i

let digits st =
  let start = st.pos in
  st.pos <- digits_end st.text st.len start;
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
   cursor is on the opening bracket; [item] reads one element and
   [member] one object member from its key on, each threading [acc].
   The walkers and the functions passed to them are top-level, so a
   container costs no closure. *)
let rec array_items st item acc =
  let acc = item st acc in
  skip_ws st;
  match peek st with
  | ',' ->
    advance st;
    array_items st item acc
  | ']' ->
    advance st;
    acc
  | _ -> fail st "expected ',' or ']' in array"

let walk_array st item acc =
  advance st;
  skip_ws st;
  if peek st = ']' then begin
    advance st;
    acc
  end
  else array_items st item acc

let rec object_members st member acc =
  skip_ws st;
  let acc = member st acc in
  skip_ws st;
  match peek st with
  | ',' ->
    advance st;
    object_members st member acc
  | '}' ->
    advance st;
    acc
  | _ -> fail st "expected ',' or '}' in object"

let walk_object st member acc =
  advance st;
  skip_ws st;
  if peek st = '}' then begin
    advance st;
    acc
  end
  else object_members st member acc

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
  | '[' -> List (List.rev (walk_array st parse_item []))
  | '{' -> Obj (List.rev (walk_object st parse_member []))
  | _ -> unexpected st

and parse_item st items = parse_value st :: items

and parse_member st fields =
  let k = parse_string st in
  colon st;
  (k, parse_value st) :: fields

let rec check_value st =
  skip_ws st;
  match peek st with
  | 'n' -> literal st "null" ()
  | 't' -> literal st "true" ()
  | 'f' -> literal st "false" ()
  | '"' -> skip_string st
  | '-' | '0' .. '9' -> ignore (scan_number st)
  | '[' -> walk_array st check_item ()
  | '{' -> walk_object st check_member ()
  | _ -> unexpected st

and check_item st () = check_value st

and check_member st () =
  skip_string st;
  colon st;
  check_value st

let run value text len =
  let st = { text; len; pos = 0 } in
  match value st with
  | v ->
    skip_ws st;
    if st.pos < len then
      Error (Printf.sprintf "byte %d: trailing input after JSON value" st.pos)
    else Ok v
  | exception Parse_error (pos, msg) ->
    Error (Printf.sprintf "byte %d: %s" pos msg)

let of_string text = run parse_value text (String.length text)
let check text = run check_value text (String.length text)

(* The scan reads the bytes as a string for its duration only; nothing
   writes to [b] meanwhile. *)
let check_buf b = run check_value (Bytes.unsafe_to_string (Buf.bytes b)) (Buf.length b)

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
