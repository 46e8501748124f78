let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n = Unix.write fd bytes pos len in
    write_all fd bytes (pos + n) (len - n)
  end

(* At least 4 KiB free per read: a reply that fills the buffer doubles
   it, so a large one takes a few reads and a buffer at its capacity
   takes it in as few as the socket allows. *)
let read_into fd b =
  let module Buf = Skope_report.Json.Buf in
  Buf.reserve b 4096;
  let bytes = Buf.bytes b and n = Buf.length b in
  let got = Unix.read fd bytes n (Bytes.length bytes - n) in
  Buf.advance b got;
  got

let rec newline b i n =
  if i >= n then -1
  else if Bytes.unsafe_get b i = '\n' then i
  else newline b (i + 1) n

let inet_addr host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
    let unresolved () = Error (Printf.sprintf "cannot resolve host %S" host) in
    (* The system resolver reads an empty name as the local host. *)
    if host = "" then unresolved ()
    else
      match
        Unix.getaddrinfo host ""
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> Ok addr
      | _ -> unresolved ())
