(* Host fingerprint and process memory. *)

let first_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 when line <> "" -> line
     | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

let git_rev () =
  if Sys.file_exists ".git" then
    first_line "git" [ "rev-parse"; "--short=12"; "HEAD" ]
  else "none(not-a-git-checkout)"

let fingerprint () =
  Printf.sprintf "host nproc=%s recommended_domains=%d ocaml=%s rev=%s"
    (first_line "nproc" [])
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_rev ())

(* Peak resident set (VmHWM) of a process, in MiB; [pid] "self" for
   this one. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          (match String.split_on_char ' ' (String.trim v) with
           | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0)
                          (int_of_string_opt kb)
           | [] -> None)
        | _ -> None)
    |> Option.value ~default:nan
