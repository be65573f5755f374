(* String-keyed map whose entries form an intrusive doubly-linked list
   in recency order: [find] (which marks the entry most recent), [add]
   and [evict] are O(1). No lock, no cap and no counters — each owner
   ([Cache], [Dedup]) keeps its own and decides when to evict. *)

type 'a node = {
  key : string;
  value : 'a;
  mutable prev : 'a node option;  (* towards most-recent *)
  mutable next : 'a node option;  (* towards least-recent *)
}

type 'a t = {
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used; evicted first *)
}

let create () = { tbl = Hashtbl.create 256; head = None; tail = None }
let length t = Hashtbl.length t.tbl
let mem t key = Hashtbl.mem t.tbl key

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some n ->
    (match t.head with
     | Some h when h == n -> ()
     | _ ->
       unlink t n;
       push_front t n);
    Some n.value

(* [key] must be absent; it enters as the most recent entry. *)
let add t key value =
  let n = { key; value; prev = None; next = None } in
  push_front t n;
  Hashtbl.replace t.tbl key n

(* Drop the least recently used entry, if any. *)
let evict t =
  Option.iter
    (fun n ->
      unlink t n;
      Hashtbl.remove t.tbl n.key)
    t.tail
