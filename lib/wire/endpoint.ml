type t = Tcp of int | Unix_path of string

let to_string = function
  | Tcp p -> Printf.sprintf "tcp:%d" p
  | Unix_path p -> "unix:" ^ p

let strip ~prefix s =
  if String.starts_with ~prefix s then
    Some (String.sub s (String.length prefix)
            (String.length s - String.length prefix))
  else None

let of_string s =
  let s = String.trim s in
  let port text =
    match int_of_string_opt text with
    | Some p when p >= 1 && p <= 65535 -> Ok (Tcp p)
    | Some p ->
      Error (Printf.sprintf "endpoint %S: port %d is outside [1, 65535]" s p)
    | None -> Error (Printf.sprintf "endpoint %S: bad tcp port" s)
  in
  match (strip ~prefix:"tcp:" s, strip ~prefix:"unix:" s) with
  | Some rest, _ -> port rest
  | None, Some "" -> Error (Printf.sprintf "endpoint %S has no path" s)
  | None, Some path -> Ok (Unix_path path)
  | None, None ->
    if s = "" then Error "empty endpoint"
    else if int_of_string_opt s <> None then port s
    else Ok (Unix_path s)

let list_of_string s =
  let parts =
    List.filter (fun x -> String.trim x <> "") (String.split_on_char ',' s)
  in
  if parts = [] then Error "no endpoints given"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: tl -> Result.bind (of_string p) (fun e -> go (e :: acc) tl)
    in
    go [] parts

let sockaddr = function
  | Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)

let connect t =
  let domain, addr = sockaddr t in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd
