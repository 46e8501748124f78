(* The output check: verification bodies go through the router one at a
   time, untimed, and each reply must equal, byte for byte once the
   router's "shard" field is stripped, what a fresh in-process
   dispatcher answers for the same body.  The stripped replies also
   fold into one MD5, which a committed golden file pins per seed, so a
   change that alters answers on both sides alike is still caught. *)

module Json = Core.Report.Json
module Dispatch = Skope_service.Dispatch

(* The router appends ,"shard":"sN" as the last field. *)
let strip_shard resp =
  let marker = {|,"shard":"|} in
  let n = String.length resp and k = String.length marker in
  let rec find i =
    if i < 0 then None
    else if String.sub resp i k = marker then Some i
    else find (i - 1)
  in
  match find (n - k) with
  | Some i when resp.[n - 1] = '}' -> String.sub resp 0 i ^ "}"
  | _ -> resp

type outcome = {
  checked : int;
  mismatches : int;
  failed : int;  (** transport failures and ok:false replies *)
  md5 : string;
  first_mismatch : string option;
}

let run ~port bodies =
  let dispatch = Dispatch.create () in
  let replies = ref [] and mismatches = ref 0 and failed = ref 0 in
  let first = ref None in
  Array.iter
    (fun body ->
      let expected = Dispatch.handle dispatch body in
      let got =
        match Cluster.request ~port body with
        | Ok r -> strip_shard r
        | Error e -> "transport error: " ^ Skope_service.Client.error_message e
      in
      if not (String.starts_with ~prefix:Load.ok_prefix got) then incr failed;
      if got <> expected then begin
        incr mismatches;
        if !first = None then
          first :=
            Some (Printf.sprintf "body %s\n  expected %s\n  got      %s" body expected got)
      end;
      replies := got :: !replies)
    bodies;
  {
    checked = Array.length bodies;
    mismatches = !mismatches;
    failed = !failed;
    md5 = Digest.to_hex (Digest.string (String.concat "\n" (List.rev !replies)));
    first_mismatch = !first;
  }

(* [golden/seed-<seed>.json] maps workload names to the MD5 of their
   verification replies: {"seed":1,"md5":{"hot-hits":"...",...}}.
   [None] when no golden exists for this seed or workload. *)
let golden ~dir ~seed workload =
  let path = Filename.concat dir (Printf.sprintf "seed-%d.json" seed) in
  if not (Sys.file_exists path) then None
  else
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> Report.text [ "md5"; workload ] j
    | Error msg -> failwith (path ^ ": " ^ msg)
