(** Where a daemon listens and how a client reaches it: one loopback
    TCP port or one Unix-domain socket path. The daemon binds it, the
    client and the load generator connect to it, and the CLI parses it
    from [--endpoints]. *)

type t = Tcp of int  (** loopback; port 0 binds an ephemeral port *) | Unix_path of string

val to_string : t -> string
(** ["tcp:PORT"] or ["unix:PATH"]; {!of_string} reads it back. *)

val of_string : string -> (t, string) result
(** One connect target: ["PORT"] and ["tcp:PORT"] are loopback TCP,
    ["unix:PATH"] and any other non-empty string a socket path. A port
    must be in [\[1, 65535\]] (port 0 names no daemon), and ["unix:"]
    must be followed by a path. *)

val list_of_string : string -> (t list, string) result
(** A comma-separated, non-empty list of {!of_string} targets. *)

val sockaddr : t -> Unix.socket_domain * Unix.sockaddr

val connect : t -> Unix.file_descr
(** A connected close-on-exec stream socket; the socket is closed
    again when the connect fails.
    @raise Unix.Unix_error when nothing listens there. *)
