"""Golden-bytes regression tests for the wire codec.

Every registered message type gets its encoded frame pinned by length and
SHA-256; the hot-path messages (client request, batched PREPARE) are
additionally pinned byte for byte.  These constants *are* the wire
format: a failure here means frames changed on the wire, which breaks
mixed-version groups and recorded traces.  If the change is intentional
(a new field, a reordered registry), re-generate the constants and say
so in the commit message — never "fix" the test by loosening it.

The fixtures come from ``tests.test_wire_codec.SAMPLES``, which the
registry-coverage test there forces to stay exhaustive, so a newly
registered message type shows up here as a missing-pin failure.
"""

import hashlib
from dataclasses import replace

from repro.core.seqnum import flatten
from repro.crypto.mac import digest_many
from repro.messages.client import Request
from repro.messages.ordering import Prepare
from repro.trinx.enclave import EnclavePlatform
from repro.trinx.trinx import TrInX, batch_root
from repro.wire.codec import default_codec
from tests.test_wire_codec import SAMPLES

# (frame length, sha256 of frame) per message type, in SAMPLES order.
GOLDEN_FRAMES = {
    "Authenticator": (58, "635493c93e3c07289041a9282b24cbe55e034ee2e7b3ab57491b81cb47d7f60c"),
    "Checkpoint": (88, "9977bdd002fdcf21c3a32828c473f0b0c8f992b57827fd9cbd975a9158678ef0"),
    "Reply": (63, "ea3b5f186a9d5da52a790216f1b14611be6e1b9eb2c8f7d5e577f22c6fd2125e"),
    "Request": (100, "91bb0392ac33bb4ee895495d26391cb8db12ad4c37064415f38fdfa4916e5fd1"),
    "RequestBurst": (135, "3e9a1a8539a40f8f138720beff7012e7a16b67a4850fc8d20769dfd7f83640ef"),
    "AckReady": (163, "f3347140f3747da81ec75506a2001f0be0f819465b146656f330fd6a8287490f"),
    "CkReached": (49, "c6b0cfdb81cf54b291a65f8db40dfc6e81247c3a35cfdd38f54246dca0c30439"),
    "CkStable": (131, "c3da384696d2d5499500c569c580bc7cc0bb10b2ddfa2bead436ba8f117cfa41"),
    "ExecRequest": (110, "7a1d778f3aec9d03693ef9044d0f22bfa0214ed1208b9f0edcb688e063b429fb"),
    "Executed": (60, "50a814b39fca75fd51fc9f271014991778022ae77f53a4f964a7a2900414c23f"),
    "FillGap": (26, "72f86d5baea2ce30636bf45564475e68611ad44365a626a506061f25d8a185da"),
    "ForwardAck": (171, "67c2b82807eb5c8b5f0ab5d63f4ed6116f89dd370eb030bbb684547dc8088c40"),
    "ForwardNv": (700, "05360a8546e2990db5fe15e86cb492e2330090976ea2b0755c56b5a0e7853f6c"),
    "ForwardVc": (327, "f4d4ad66f3fa71ae9e6ed604b9867c22d104b4e59b910db907575a1ce1c5fafe"),
    "NvReady": (690, "671cf924acc40c8fe53d8da0ad2b771ad8614ab436797e7315c5ef12bb0f0f55"),
    "NvStable": (236, "fdea58061e14bbcdcac0d3bdb504bff11d0100bcd02dfbe531bb96aa349b4554"),
    "OrderRequest": (106, "e6a7c16d0acf7bb4901968f132bba9537cff8fc5f56a2f8bff5e13403b285bcd"),
    "PrepareVc": (26, "989fac592443692afd11a98abaa5bbd604b46a43957f727d9bc385370b356047"),
    "ReReply": (104, "1fc5b6ac088922e01740c4682c650a960063820e0e18d588995cceb9a3e7be49"),
    "ReplyJob": (69, "bad015637531320a672c905042eb81e28eb2768a176abf84aca12af92208d1df"),
    "RequestState": (31, "3d9b5d9cd34b07e2bb7d0c3a622df129e9313ba70c2a7a8f6ad355ad5a938fd4"),
    "RequestVc": (45, "852790e0c52bed9afe8405805ffe1ab8a19a232c1cd37450e2be1d7c2641735c"),
    "ResendNv": (30, "539d149968d31ba299f663831ded102bb910de3717d95b3249e84acc44317956"),
    "ResendVc": (26, "e30e2b5a3a2c92e190a5be371a8e0f7956adcdf13a9a7c35d2c03a8c51bb5f1c"),
    "StateInstall": (92, "77af8af1832b20cad1c49a0e651ea5af379537631ba4b35219fa405c2c857d3d"),
    "StateInstalled": (28, "170615297c74ef981190d1cd5a4f0ec4b7a15882eef4dbfd61eb02ff44958454"),
    "UnitVc": (164, "d010bb3152a0065b19ff0979bbc84dc288d1c21179fa54cfd2a3399d67fb0b14"),
    "VcReady": (236, "487ac19e56203e6ff8ee29c6adcd0829d8745ddfcaa99ff9dea92d10d7c9bf3b"),
    "ViewInstalled": (45, "9bd8b18a613d4be630aeffe7d53df259b6f6451442ce09dfe622d542d111fc83"),
    "Commit": (89, "3d639c35a32f4bb5f7301876cba7906fab17a6a243ea6fb36f51195d0921204d"),
    "InstanceFetch": (28, "db4710ee45161142b31af0ebacbb301508aac7a3ade2c3766e4dacd4e0f921ed"),
    "Prepare": (151, "ec40ca366423cdd934d1d0a2ede06481646834925d23a16c372cce171083c20d"),
    "StateRequest": (31, "33559787a59fccaf240057e49b46fed4fcd24c59f8765a34922c7a8c8d4a4974"),
    "StateResponse": (122, "f5439cc03bc983538c7a4347a164bb9e16ede37514248b42954dea85baab8a06"),
    "NewView": (696, "d856255632b3add5754a2aa0d4350d4ad133d7508e99ff9052e7836397cabb0a"),
    "NewViewAck": (167, "a96865ed4e98faed74a264e7a9fbca691c7e28b2bf5bb442aa15336da510c5a5"),
    "ViewChange": (323, "18fbe85ac3c94f6e8c597a8a9a09019ecc907726c0fdac829bd9543b4e29f896"),
    "CounterCertificate": (55, "92254351b26a90baa4693e1a5da0fe9abd3eed0b42ab313a9077bbec5e028aa8"),
    "MultiCounterCertificate": (66, "5634e494fff8f48e53b0bafd55e2d59dffab632da6ffa3dcd9329a5e42b743ef"),
}

# A batched PREPARE — two requests, one batch certificate, the batch
# digest commitment — pinned byte for byte.  This is the frame the
# tentpole changed (field count 6 -> 7): any further drift must be loud.
GOLDEN_BATCHED_PREPARE_HEX = (
    "487901010020000000e0d0634e960000000000000b20070302035407020b0405050a63"
    "6c69656e74733a6331030e0503696e6303000620111111111111111111111111111111"
    "1111111111111111111111111111111111000b0405050a636c69656e74733a63320306"
    "0503676574030006202222222222222222222222222222222222222222222222222222"
    "22222222222200050272310b2605050772302f74737330030003d48080808040000620"
    "00ae844c5f2cd26e480efbe133a2ffbcc19abf7daab6dd6765adf667382208d9000206"
    "20dabf10337a880438fee4f827af56d7d8a05c7394c0a5d66fb33acbddd364e94a00"
)

GOLDEN_REQUEST_HEX = (
    "4879010100040000003bea23081a0000000000000b0405050a636c69656e74733a6331"
    "030e0503696e6303000620111111111111111111111111111111111111111111111111"
    "111111111111111100"
)


def _batched_prepare() -> Prepare:
    secret = b"golden-bytes-fixture-secret-0000"
    trinx = TrInX(EnclavePlatform(), "r0/tss0", secret, num_counters=2)
    requests = (
        Request("clients:c1", 7, "inc", mac=b"\x11" * 32),
        Request("clients:c2", 3, "get", mac=b"\x22" * 32),
    )
    bare = Prepare(1, 42, requests, "r1")
    leaves = digest_many([request.digestible() for request in requests])
    certificate = trinx.create_independent_batch(
        0, flatten(1, 42), bare.certified_digestible(), leaves
    )
    return replace(bare, certificate=certificate, batch_digest=batch_root(leaves))


class TestGoldenFrames:
    def test_every_sample_type_is_pinned(self):
        assert sorted(GOLDEN_FRAMES) == sorted(type(sample).__name__ for sample in SAMPLES)

    def test_frame_hashes_are_stable(self):
        codec = default_codec()
        mismatches = []
        for sample in SAMPLES:
            name = type(sample).__name__
            frame = bytes(codec.encode(sample))
            expected_len, expected_sha = GOLDEN_FRAMES[name]
            actual = (len(frame), hashlib.sha256(frame).hexdigest())
            if actual != (expected_len, expected_sha):
                mismatches.append((name, actual))
        assert not mismatches, f"wire format drifted for: {mismatches}"

    def test_batched_prepare_bytes_exact(self):
        codec = default_codec()
        prepare = _batched_prepare()
        frame = bytes(codec.encode(prepare))
        assert frame.hex() == GOLDEN_BATCHED_PREPARE_HEX
        assert codec.decode(frame) == prepare

    def test_request_bytes_exact(self):
        codec = default_codec()
        request = _batched_prepare().batch[0]
        frame = bytes(codec.encode(request))
        assert frame.hex() == GOLDEN_REQUEST_HEX
        assert codec.decode(frame) == request

    def test_batch_digest_roundtrips_through_the_codec(self):
        codec = default_codec()
        prepare = _batched_prepare()
        decoded = codec.decode(bytes(codec.encode(prepare)))
        assert decoded.batch_digest == prepare.batch_digest
        assert decoded.certificate == prepare.certificate
        # and the None case (pre-batching senders) still round-trips
        legacy = replace(prepare, batch_digest=None)
        assert codec.decode(bytes(codec.encode(legacy))).batch_digest is None


# (frame length, sha256 of frame) of the envelope frames live mode sends,
# for the five message shapes of the benchmark's corpus, addressed
# r0/pillar0 -> pillar0.  Pinned from the reflective codec the compiled
# plans replaced: the envelope path is the one every live frame takes.
GOLDEN_ENVELOPES = {
    "request": (123, "9b59ee66f1c5dd091920291e68b4212a399f621ceed74edf0269ec2690e32244"),
    "prepare_b1": (227, "6fd45a824b081d934185062b1c0bf3506f6a7870e965e3bc870765068fa76276"),
    "prepare_b16_1k": (17864, "d70a3344ee19851eeff17c7e974af4e499c7cdb31e757adc322d1996d1e7e90a"),
    "commit": (143, "b78fae0f5ca42482f768f9db8ac871cb4682a0cda75f7f9e09dfabc8b9a6aed4"),
    "reply": (78, "ed9294d2ac1c54adaa416f6eb4d5dbfef8cb79a52b7f4e62386e140cfd45742d"),
}


class TestGoldenEnvelopes:
    def test_envelope_hashes_are_stable(self):
        from bench.layers import corpus

        codec = default_codec()
        actual = {}
        for name, message in corpus().items():
            frame = codec.encode_envelope("r0", "pillar0", "pillar0", message)
            actual[name] = (len(frame), hashlib.sha256(frame).hexdigest())
            assert codec.decode_envelope(frame) == ("r0", "pillar0", "pillar0", message)
        assert actual == GOLDEN_ENVELOPES
