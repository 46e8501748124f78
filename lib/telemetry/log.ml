type level = Debug | Info | Warn | Error

let level_label = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type value = Str of string | F of float | I of int | B of bool

(* Minimal RFC 8259 string escaping, shared with the Chrome exporter:
   this library sits below the report layer, so it cannot borrow its
   printer. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
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

let value_lit = function
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | F f ->
    if Float.is_finite f then Printf.sprintf "%.6g" f
    else Printf.sprintf "\"%s\"" (Float.to_string f)
  | I i -> string_of_int i
  | B b -> if b then "true" else "false"

(* One token bucket per event name.  All limiter and writer state is
   behind one mutex: the log is a low-rate side channel (the limiter
   exists precisely to keep it that way), so contention is not a
   concern the way it is for spans. *)
type bucket = { mutable tokens : float; mutable last : float; mutable held : int }

type state = {
  lock : Mutex.t;
  mutable min_level : level;
  mutable write : string -> unit;
  mutable burst : int;
  mutable per_s : float;
  buckets : (string, bucket) Hashtbl.t;
  mutable suppressed : int;
}

let stderr_write line =
  output_string stderr (line ^ "\n");
  flush stderr

let state =
  {
    lock = Mutex.create ();
    min_level = Info;
    write = stderr_write;
    burst = 50;
    per_s = 10.;
    buckets = Hashtbl.create 16;
    suppressed = 0;
  }

let with_lock f =
  Mutex.lock state.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock state.lock) f

let set_level l = with_lock (fun () -> state.min_level <- l)
let get_level () = with_lock (fun () -> state.min_level)
let set_output w = with_lock (fun () -> state.write <- w)
let use_stderr () = set_output stderr_write

let set_rate ~burst ~per_s =
  with_lock (fun () ->
      state.burst <- burst;
      state.per_s <- Float.max 0. per_s;
      Hashtbl.reset state.buckets)

let suppressed_total () = with_lock (fun () -> state.suppressed)

(* Returns [Some held] (emit, with how many repeats the limiter ate
   since the last line for this event) or [None] (drop).  Must be
   called under the lock. *)
let admit event now =
  if state.burst <= 0 then Some 0
  else begin
    let b =
      match Hashtbl.find_opt state.buckets event with
      | Some b -> b
      | None ->
        let b = { tokens = float_of_int state.burst; last = now; held = 0 } in
        Hashtbl.replace state.buckets event b;
        b
    in
    let dt = Float.max 0. (now -. b.last) in
    b.last <- now;
    b.tokens <-
      Float.min (float_of_int state.burst) (b.tokens +. (dt *. state.per_s));
    if b.tokens >= 1. then begin
      b.tokens <- b.tokens -. 1.;
      let held = b.held in
      b.held <- 0;
      Some held
    end
    else begin
      b.held <- b.held + 1;
      state.suppressed <- state.suppressed + 1;
      None
    end
  end

let emit ?(level = Info) ?trace_id event attrs =
  with_lock (fun () ->
      if severity level >= severity state.min_level then begin
        let now = Unix.gettimeofday () in
        match admit event now with
        | None -> ()
        | Some held ->
          let buf = Buffer.create 160 in
          Buffer.add_string buf (Printf.sprintf "{\"ts\":%.6f" now);
          Buffer.add_string buf
            (Printf.sprintf ",\"level\":\"%s\"" (level_label level));
          Buffer.add_string buf
            (Printf.sprintf ",\"event\":\"%s\"" (escape event));
          (match trace_id with
          | Some id ->
            Buffer.add_string buf
              (Printf.sprintf ",\"trace_id\":\"%s\"" (escape id))
          | None -> ());
          if held > 0 then
            Buffer.add_string buf (Printf.sprintf ",\"suppressed\":%d" held);
          if attrs <> [] then begin
            Buffer.add_string buf ",\"attrs\":{";
            List.iteri
              (fun i (k, v) ->
                if i > 0 then Buffer.add_char buf ',';
                Buffer.add_string buf
                  (Printf.sprintf "\"%s\":%s" (escape k) (value_lit v)))
              attrs;
            Buffer.add_char buf '}'
          end;
          Buffer.add_char buf '}';
          (try state.write (Buffer.contents buf) with _ -> ())
      end)
