let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Bytes [pos, len) of [chunk] are read but not yet split; [line]
   holds the start of a line whose newline has not arrived. *)
type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let reader fd =
  { fd; chunk = Bytes.create 65536; pos = 0; len = 0; line = Buffer.create 4096 }

(* [false] once [deadline] passes before [fd] turns readable. *)
let rec wait_readable fd deadline =
  let wait = deadline -. Unix.gettimeofday () in
  wait > 0.0
  &&
  match Unix.select [ fd ] [] [] wait with
  | [], _, _ -> wait_readable fd deadline
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd deadline

(* Refill [chunk]: [false] at end of stream, on error, or past the
   deadline. *)
let rec fill ?deadline r =
  match deadline with
  | Some d when not (wait_readable r.fd d) -> false
  | _ -> (
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 -> false
    | n ->
      r.pos <- 0;
      r.len <- n;
      true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ?deadline r
    | exception (Unix.Unix_error _ | Sys_error _) -> false)

let rec newline r i =
  if i >= r.len then None
  else if Bytes.get r.chunk i = '\n' then Some i
  else newline r (i + 1)

let rec read_line ?deadline r =
  match newline r r.pos with
  | Some i ->
    Buffer.add_subbytes r.line r.chunk r.pos (i - r.pos);
    r.pos <- i + 1;
    let l = Buffer.contents r.line in
    Buffer.clear r.line;
    Some l
  | None ->
    Buffer.add_subbytes r.line r.chunk r.pos (r.len - r.pos);
    r.pos <- r.len;
    if fill ?deadline r then read_line ?deadline r else None
