(** Newline-framed I/O on a stream socket: the client side of the
    JSONL protocol (one frame per line). The daemon keeps its own
    reader, which also caps frame size and resynchronises after an
    oversized frame. *)

val write_all : Unix.file_descr -> string -> unit
(** Writes every byte, resuming after [EINTR].
    @raise Unix.Unix_error when the peer is gone. *)

type reader

val reader : Unix.file_descr -> reader

val read_line : ?deadline:float -> reader -> string option
(** The next line, without its ['\n']. [None] at end of stream, on a
    read error, or — with [deadline], an absolute [Unix.gettimeofday]
    time — once the deadline passes with no complete line buffered. A
    partial line is kept for the next call. *)
