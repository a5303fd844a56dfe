(* Tests for binary checkpoint files and envelope kill/resume. *)

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let bits = Int64.bits_of_float

let sample_sections =
  [
    ("t2", Checkpoint.Scalar 12.34);
    ("kind", Checkpoint.Text "envelope");
    ("omega_hist", Checkpoint.Vector [| 0.75; 0.74; nan; infinity; -0.0; 1e-308 |]);
    ("states", Checkpoint.Matrix [| [| 1.; 2. |]; [| 3.; 4. |] |]);
    ("slices", Checkpoint.Tensor [| [| [| 1. |]; [| 2. |] |]; [| [| 3. |]; [| 4. |] |] |]);
  ]

let check_float_bits what a b =
  Alcotest.(check int64) what (bits a) (bits b)

let corrupt_byte path offset =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  let data = Bytes.of_string data in
  Bytes.set data offset (Char.chr (Char.code (Bytes.get data offset) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

let expect_corrupt what f =
  match f () with
  | exception Checkpoint.Corrupt _ -> ()
  | _ -> Alcotest.fail (what ^ ": expected Checkpoint.Corrupt")

let tests =
  [
    Alcotest.test_case "sections round-trip bitwise" `Quick (fun () ->
        let path = tmp_path "ckpt_roundtrip.bin" in
        Checkpoint.save ~path sample_sections;
        let ck = Checkpoint.load ~path in
        check_float_bits "scalar" 12.34 (Checkpoint.scalar ck "t2");
        Alcotest.(check string) "text" "envelope" (Checkpoint.text ck "kind");
        let v = Checkpoint.vector ck "omega_hist" in
        Array.iteri
          (fun i x -> check_float_bits (Printf.sprintf "vector.%d" i) x v.(i))
          [| 0.75; 0.74; nan; infinity; -0.0; 1e-308 |];
        let m = Checkpoint.matrix ck "states" in
        Alcotest.(check (float 0.)) "matrix" 4. m.(1).(1);
        let t = Checkpoint.tensor ck "slices" in
        Alcotest.(check (float 0.)) "tensor" 3. t.(1).(0).(0);
        Alcotest.(check bool) "mem" true (List.mem_assoc "t2" ck);
        Alcotest.(check bool) "not mem" false (List.mem_assoc "nope" ck);
        Sys.remove path);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:50 ~name:"random vectors round-trip bitwise"
         QCheck.(list (float_bound_exclusive 1e6))
         (fun floats ->
           let a = Array.of_list floats in
           let path = tmp_path "ckpt_qcheck.bin" in
           Checkpoint.save ~path [ ("v", Checkpoint.Vector a) ];
           let got = Checkpoint.vector (Checkpoint.load ~path) "v" in
           Sys.remove path;
           Array.length got = Array.length a
           && Array.for_all2 (fun x y -> bits x = bits y) got a));
    Alcotest.test_case "typed accessors reject missing/mistyped sections" `Quick (fun () ->
        let path = tmp_path "ckpt_typed.bin" in
        Checkpoint.save ~path sample_sections;
        let ck = Checkpoint.load ~path in
        expect_corrupt "missing" (fun () -> Checkpoint.scalar ck "absent");
        expect_corrupt "mistyped" (fun () -> Checkpoint.vector ck "t2");
        Sys.remove path);
    Alcotest.test_case "payload corruption is detected by the CRC" `Quick (fun () ->
        let path = tmp_path "ckpt_crc.bin" in
        Checkpoint.save ~path sample_sections;
        (* header is 8 (magic) + 4 (version) + 8 (length) + 4 (crc) = 24
           bytes; flip a payload byte well past it *)
        corrupt_byte path 40;
        expect_corrupt "crc" (fun () -> Checkpoint.load ~path);
        Sys.remove path);
    Alcotest.test_case "truncated and oversized files are rejected" `Quick (fun () ->
        let path = tmp_path "ckpt_trunc.bin" in
        Checkpoint.save ~path sample_sections;
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let data = really_input_string ic len in
        close_in ic;
        let rewrite s =
          let oc = open_out_bin path in
          output_string oc s;
          close_out oc
        in
        rewrite (String.sub data 0 (len - 5));
        expect_corrupt "truncated" (fun () -> Checkpoint.load ~path);
        rewrite (data ^ "junk");
        expect_corrupt "trailing" (fun () -> Checkpoint.load ~path);
        Sys.remove path);
    Alcotest.test_case "bad magic and future versions are rejected" `Quick (fun () ->
        let path = tmp_path "ckpt_magic.bin" in
        Checkpoint.save ~path sample_sections;
        corrupt_byte path 0;
        expect_corrupt "magic" (fun () -> Checkpoint.load ~path);
        Checkpoint.save ~path sample_sections;
        corrupt_byte path 8;
        expect_corrupt "version" (fun () -> Checkpoint.load ~path);
        expect_corrupt "missing file" (fun () -> Checkpoint.load ~path:(tmp_path "ckpt_nope"));
        Sys.remove path);
    Alcotest.test_case "envelope kill + resume equals uninterrupted run" `Slow (fun () ->
        (* The acceptance test for the restart layer: run the VCO-A
           envelope adaptively, kill it after 3 accepted steps (the
           checkpoint was written at step 2), resume from the file and
           require the full history to match the never-killed run to
           1e-12.  The bitwise comparison needs a fault-free run, so
           an ambient WAMPDE_FAULTS schedule is masked. *)
        Fault.with_armed "" @@ fun () ->
        let n1 = 15 in
        let frozen = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1 ~period_hint:(1. /. 0.75)
            (Circuit.Vco.initial_state frozen)
        in
        let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
        let options = Wampde.Envelope.default_options ~n1 () in
        let control = Step_control.default_options ~rtol:1e-4 ~atol:1e-7 () in
        let t2_end = 6. in
        let run ?checkpoint ?resume ?on_accept () =
          Wampde.Envelope.simulate_controlled dae ~options ~control ~h2_init:0.5 ?checkpoint
            ?resume ?on_accept ~t2_end ~init:orbit ()
        in
        let reference = run () in
        let path = tmp_path "ckpt_envelope.bin" in
        let accepts = ref 0 in
        (match
           run
             ~checkpoint:(path, 2)
             ~on_accept:(fun ~t2:_ ~omega:_ ->
               incr accepts;
               if !accepts >= 3 then raise Exit)
             ()
         with
        | exception Exit -> ()
        | _ -> Alcotest.fail "killed run was expected to stop early");
        let resumed = run ~resume:path () in
        let n = Array.length reference.Wampde.Envelope.t2 in
        Alcotest.(check int) "same number of accepted steps" n
          (Array.length resumed.Wampde.Envelope.t2);
        for i = 0 to n - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "t2.(%d)" i)
            true
            (Float.abs (reference.Wampde.Envelope.t2.(i) -. resumed.Wampde.Envelope.t2.(i))
             <= 1e-12);
          Alcotest.(check bool)
            (Printf.sprintf "omega.(%d)" i)
            true
            (Float.abs
               (reference.Wampde.Envelope.omega.(i) -. resumed.Wampde.Envelope.omega.(i))
             <= 1e-12);
          Array.iteri
            (fun j slice ->
              Array.iteri
                (fun k x ->
                  Alcotest.(check bool)
                    (Printf.sprintf "slices.(%d).(%d).(%d)" i j k)
                    true
                    (Float.abs (x -. resumed.Wampde.Envelope.slices.(i).(j).(k)) <= 1e-12))
                slice)
            reference.Wampde.Envelope.slices.(i)
        done;
        Sys.remove path);
    Alcotest.test_case "faulted run resumes to match the uninterrupted run" `Slow (fun () ->
        (* Solver hardening end-to-end: checkpoint every 2 accepted
           steps, then after 3 accepts arm a 100% linear-solve fault
           rate — every retry fails, the slow step underflows and the
           run dies with a typed error.  Resuming (disarmed) from the
           checkpoint must reproduce the fault-free history to 1e-12:
           injected faults abort runs, they never corrupt them. *)
        Fault.with_armed "" @@ fun () ->
        let n1 = 15 in
        let frozen = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1 ~period_hint:(1. /. 0.75)
            (Circuit.Vco.initial_state frozen)
        in
        let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
        (* no rescue: the cascade must not absorb the persistent fault,
           the step controller has to surface it *)
        let options = Wampde.Envelope.default_options ~n1 ~rescue:false () in
        let control = Step_control.default_options ~rtol:1e-4 ~atol:1e-7 () in
        let t2_end = 6. in
        let run ?checkpoint ?resume ?on_accept () =
          Wampde.Envelope.simulate_controlled dae ~options ~control ~h2_init:0.5 ?checkpoint
            ?resume ?on_accept ~t2_end ~init:orbit ()
        in
        let reference = run () in
        let path = tmp_path "ckpt_faulted.bin" in
        let accepts = ref 0 in
        (match
           run
             ~checkpoint:(path, 2)
             ~on_accept:(fun ~t2:_ ~omega:_ ->
               incr accepts;
               if !accepts = 3 then Result.get_ok (Fault.arm "linsolve%1"))
             ()
         with
        | exception Step_control.Underflow _ -> Fault.disarm ()
        | _ ->
          Fault.disarm ();
          Alcotest.fail "faulted run was expected to die with a typed error");
        let resumed = run ~resume:path () in
        let n = Array.length reference.Wampde.Envelope.t2 in
        Alcotest.(check int) "same number of accepted steps" n
          (Array.length resumed.Wampde.Envelope.t2);
        for i = 0 to n - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "t2.(%d)" i)
            true
            (Float.abs (reference.Wampde.Envelope.t2.(i) -. resumed.Wampde.Envelope.t2.(i))
             <= 1e-12);
          Alcotest.(check bool)
            (Printf.sprintf "omega.(%d)" i)
            true
            (Float.abs
               (reference.Wampde.Envelope.omega.(i) -. resumed.Wampde.Envelope.omega.(i))
             <= 1e-12)
        done;
        Sys.remove path);
    Alcotest.test_case "resume validates the run's shape" `Quick (fun () ->
        let path = tmp_path "ckpt_shape.bin" in
        Checkpoint.save ~path
          [
            ("kind", Checkpoint.Text "envelope");
            ("n1", Checkpoint.Scalar 25.);
            ("dim", Checkpoint.Scalar 4.);
            ("theta", Checkpoint.Scalar 0.5);
          ];
        let frozen = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1:15 ~period_hint:(1. /. 0.75)
            (Circuit.Vco.initial_state frozen)
        in
        let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
        let options = Wampde.Envelope.default_options ~n1:15 () in
        let control = Step_control.default_options () in
        expect_corrupt "n1 mismatch" (fun () ->
            Wampde.Envelope.simulate_controlled dae ~options ~control ~resume:path ~t2_end:1.
              ~init:orbit ());
        Sys.remove path);
  ]

let suites = [ ("checkpoint", tests) ]
