(** Line framing over byte streams. *)

val extract_lines : ?fresh:int -> Buffer.t -> string list
(** Remove every complete ['\n']-terminated line from the buffer and
    return them oldest first (empty lines skipped); bytes after the
    last newline stay buffered as the next partial line.  [fresh]
    says that only the buffer's last [fresh] bytes arrived since the
    previous call, so no newline lies before them and the search for
    one skips the partial line already held: a long line fed in small
    reads is scanned once.  Allocates the lines and their list only
    (the scanning happens in a scratch buffer private to the calling
    domain). *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string (blocking descriptors).
    @raise Unix.Unix_error as [Unix.write]. *)
