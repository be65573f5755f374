(* In-memory span recorder for traced runs. Spans are recorded by the
   benchmark around its calls into the program's public functions (and,
   for the daemon, derived from the durations each response reports);
   nothing inside the program is instrumented. Spans stay in memory and
   are written out once, at exit. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  rid : int;  (** request or operation id; [-1] when none *)
  start_s : float;
  stop_s : float;
}

let enabled = ref false
let mutex = Mutex.create ()
let recorded : t list ref = ref []
let next_id = ref 0

(* Seconds spent inside the recorder itself: the tracing cost that the
   traced run adds on top of the work it measures. *)
let self_s = ref 0.0

let now = Unix.gettimeofday

(* [add ~name ~start_s ~stop_s ()] records one finished span and returns
   its id ([-1] when tracing is off). *)
let add ?(parent = -1) ?(rid = -1) ~name ~start_s ~stop_s () =
  if not !enabled then -1
  else begin
    let t0 = now () in
    Mutex.lock mutex;
    let id = !next_id in
    incr next_id;
    recorded := { id; name; parent; rid; start_s; stop_s } :: !recorded;
    self_s := !self_s +. (now () -. t0);
    Mutex.unlock mutex;
    id
  end

(* [time ~name f] runs [f] and returns its result with its duration in
   milliseconds, recording a span when tracing is on. *)
let time ?parent ?rid ~name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  ignore (add ?parent ?rid ~name ~start_s:t0 ~stop_s:t1 ());
  (r, (t1 -. t0) *. 1000.0)

let durations_ms name =
  List.filter_map
    (fun s ->
      if s.name = name then Some ((s.stop_s -. s.start_s) *. 1000.0) else None)
    !recorded

let count () = List.length !recorded

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"rid\":%d,\"start_s\":%.6f,\"stop_s\":%.6f}\n"
        s.id s.name s.parent s.rid s.start_s s.stop_s)
    (List.rev !recorded);
  close_out oc
