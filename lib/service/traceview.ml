module Json = Skope_report.Json
module Span = Skope_telemetry.Span
module Recorder = Skope_telemetry.Recorder

let span_to_json (s : Span.t) =
  Json.Obj
    ([ ("id", Json.Int s.Span.id) ]
    @ (match s.Span.parent with
      | Some p -> [ ("parent", Json.Int p) ]
      | None -> [])
    @ [
        ("name", Json.String s.Span.name);
        ("start", Json.Float s.Span.start);
        ("duration_ms", Json.Float (s.Span.duration *. 1e3));
        ("domain", Json.Int s.Span.domain);
      ]
    @ (if s.Span.attrs = [] then []
       else
         [
           ( "attrs",
             Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.Span.attrs)
           );
         ])
    @
    if s.Span.counters = [] then []
    else
      [
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.Span.counters)
        );
      ])

let base_fields (r : Recorder.record) =
  [
    ("trace_id", Json.String r.Recorder.trace_id);
    ("kind", Json.String r.Recorder.kind);
    ("outcome", Json.String r.Recorder.outcome);
    ("retries", Json.Int r.Recorder.retries);
    ("queue_wait_ms", Json.Float r.Recorder.queue_wait_ms);
    ("start", Json.Float r.Recorder.start);
    ("duration_ms", Json.Float r.Recorder.duration_ms);
  ]
  @ (match r.Recorder.fingerprint with
    | Some fp -> [ ("fingerprint", Json.String fp) ]
    | None -> [])
  @
  match r.Recorder.shard with
  | Some s -> [ ("shard", Json.String s) ]
  | None -> []

let record_to_json (r : Recorder.record) =
  Json.Obj
    (base_fields r
    @ [
        ( "spans",
          (* Completion order is innermost-first; present parents
             first so readers see the tree top-down. *)
          Json.List (List.rev_map span_to_json r.Recorder.spans) );
      ])

let record_summary_json (r : Recorder.record) =
  Json.Obj (base_fields r @ [ ("spans", Json.Int (List.length r.Recorder.spans)) ])

let recent_result recorder (q : Protocol.recent_query) =
  let records =
    Recorder.recent ~n:q.Protocol.rc_n ~errors_only:q.Protocol.rc_errors_only
      ?min_duration_ms:q.Protocol.rc_min_ms recorder
  in
  Json.Obj
    [
      ("count", Json.Int (List.length records));
      ("capacity", Json.Int (Recorder.capacity recorder));
      ("records", Json.List (List.map record_summary_json records));
    ]

let trace_result ~trace_id processes =
  Json.Obj
    [
      ("trace_id", Json.String trace_id);
      ( "processes",
        Json.List
          (List.map
             (fun (name, r) ->
               Json.Obj
                 [
                   ("process", Json.String name); ("record", record_to_json r);
                 ])
             processes) );
    ]

let processes_of_trace json =
  match Json.member "processes" json with
  | Some (Json.List ps) -> ps
  | _ -> []

let relabel_processes ~process json =
  match json with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           if k <> "processes" then (k, v)
           else
             match v with
             | Json.List ps ->
               ( k,
                 Json.List
                   (List.map
                      (function
                        | Json.Obj pf ->
                          Json.Obj
                            (List.map
                               (fun (pk, pv) ->
                                 if pk = "process" then
                                   (pk, Json.String process)
                                 else (pk, pv))
                               pf)
                        | other -> other)
                      ps) )
             | other -> (k, other))
         fields)
  | other -> other

(* --- Chrome conversion --------------------------------------------- *)

let num = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let chrome_of_trace json =
  let processes = processes_of_trace json in
  if processes = [] then Error "trace result has no processes"
  else begin
    (* Spans carry epoch-seconds starts from the same wall clock in
       every process, so one global origin aligns the timelines. *)
    let t0 =
      List.fold_left
        (fun acc p ->
          match Option.bind (Json.member "record" p) (Json.member "spans") with
          | Some (Json.List spans) ->
            List.fold_left
              (fun acc s ->
                match num (Json.member "start" s) with
                | Some st -> Float.min acc st
                | None -> acc)
              acc spans
          | _ -> acc)
        infinity processes
    in
    let t0 = if t0 = infinity then 0. else t0 in
    let events = ref [] in
    List.iteri
      (fun i p ->
        let pid = i + 1 in
        let name =
          match Json.member "process" p with
          | Some (Json.String s) -> s
          | _ -> Printf.sprintf "process-%d" pid
        in
        events :=
          Json.Obj
            [
              ("name", Json.String "process_name");
              ("ph", Json.String "M");
              ("pid", Json.Int pid);
              ("args", Json.Obj [ ("name", Json.String name) ]);
            ]
          :: !events;
        match Option.bind (Json.member "record" p) (Json.member "spans") with
        | Some (Json.List spans) ->
          List.iter
            (fun s ->
              let field k = Json.member k s in
              let sname =
                match field "name" with
                | Some (Json.String n) -> n
                | _ -> "span"
              in
              let start = Option.value ~default:t0 (num (field "start")) in
              let dur_ms = Option.value ~default:0. (num (field "duration_ms")) in
              let tid =
                match field "domain" with Some (Json.Int d) -> d | _ -> 0
              in
              let args =
                (match field "id" with
                | Some (Json.Int id) -> [ ("span_id", Json.Int id) ]
                | _ -> [])
                @ (match field "parent" with
                  | Some (Json.Int pid') -> [ ("parent_id", Json.Int pid') ]
                  | _ -> [])
                @ (match field "attrs" with
                  | Some (Json.Obj _ as a) -> [ ("attrs", a) ]
                  | _ -> [])
                @
                match field "counters" with
                | Some (Json.Obj _ as c) -> [ ("counters", c) ]
                | _ -> []
              in
              events :=
                Json.Obj
                  [
                    ("name", Json.String sname);
                    ("cat", Json.String "skope");
                    ("ph", Json.String "X");
                    ("ts", Json.Float ((start -. t0) *. 1e6));
                    ("dur", Json.Float (dur_ms *. 1e3));
                    ("pid", Json.Int pid);
                    ("tid", Json.Int tid);
                    ("args", Json.Obj args);
                  ]
                :: !events)
            spans
        | _ -> ())
      processes;
    Ok
      (Json.to_string
         (Json.Obj
            [
              ("displayTimeUnit", Json.String "ms");
              ("traceEvents", Json.List (List.rev !events));
            ]))
  end
