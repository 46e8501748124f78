type t = { lock : Mutex.t; mutable spans : Span.t list }

let create () = { lock = Mutex.create (); spans = [] }

let sink t =
  {
    Span.sink_name = "chrome";
    on_span =
      (fun s ->
        Mutex.lock t.lock;
        t.spans <- s :: t.spans;
        Mutex.unlock t.lock);
  }

let length t =
  Mutex.lock t.lock;
  let n = List.length t.spans in
  Mutex.unlock t.lock;
  n

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let event buf ~t0 (s : Span.t) =
  (* Round both ends to the printed nanosecond and derive the duration
     from them: rounding [ts] and [dur] apart could push a child's end
     past its parent's when both ended on the same clock tick. *)
  let us t = Float.round ((t -. t0) *. 1e9) /. 1e3 in
  let ts_us = us s.start in
  let dur_us = us (s.start +. s.duration) -. ts_us in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"skope\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
       (Log.escape s.name) ts_us dur_us s.domain);
  let first = ref true in
  let field k v =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (Log.escape k) v)
  in
  field "span_id" (string_of_int s.id);
  (match s.parent with
  | Some p -> field "parent_id" (string_of_int p)
  | None -> ());
  List.iter
    (fun (k, v) -> field k (Printf.sprintf "\"%s\"" (Log.escape v)))
    s.attrs;
  List.iter (fun (k, v) -> field k (float_lit v)) s.counters;
  Buffer.add_string buf "}}"

let to_json t =
  Mutex.lock t.lock;
  (* Oldest first, so nested events follow their parents. *)
  let spans = List.rev t.spans in
  Mutex.unlock t.lock;
  let t0 =
    List.fold_left
      (fun acc (s : Span.t) -> Float.min acc s.start)
      infinity spans
  in
  let t0 = if t0 = infinity then 0. else t0 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      event buf ~t0 s)
    spans;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json t);
      output_char oc '\n')
