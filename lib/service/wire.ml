let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n = Unix.write fd bytes pos len in
    write_all fd bytes (pos + n) (len - n)
  end

let rec newline b i n =
  if i >= n then -1
  else if Bytes.unsafe_get b i = '\n' then i
  else newline b (i + 1) n
