"""Trace content and trace size pins.

The digests below are the sha256 of each workload's three ``int64``
columns (``instr_ids``, ``pcs``, ``addresses``, little-endian, in that
order) as :func:`repro.traces.make_trace` generates them.  A change to
how a trace is stored must leave every digest as it is; a change to
what synthesis generates must update them on purpose.
"""

import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.traces import WORKLOAD_NAMES, make_trace

#: (workload, loads, seed) -> sha256 of the trace's columns.
COLUMN_DIGESTS = {
    ("cc-5", 5000, 1):
        "ac797d74c6b06147cb728d3bcc334a264b5b29c482b0af6ec4688cf968426a9c",
    ("bfs-10", 5000, 1):
        "bc36b9581cc889acdd3bb6a0a451331381d5a8971f1d38f49f4e93c85f87ee97",
    ("471-omnetpp-s1", 5000, 1):
        "781cd04c90c5c895f42e43f023eb1151e38f3267008348a6abd23b6744d155a7",
    ("473-astar-s1", 5000, 1):
        "56535f0292b6c13cefa0a4a7676267624c82c516f4559e192bfc742dec825fd0",
    ("450-soplex-s0", 5000, 1):
        "278f9ea586d1f40ef9e5ddf771194487cf45ade9b0249b76e0435faf337bbee9",
    ("482-sphinx-s0", 5000, 1):
        "d34101c47b5be7b80191e3d65fca341878504efa9334043d78dc7d951a33dd5b",
    ("605-mcf-s1", 5000, 1):
        "ddd6600deec22e3e7d14fd6b69bfc11da087bf025e67a1a6e9307cb76fca038a",
    ("623-xalan-s1", 5000, 1):
        "35a41fc653b2def0c707b76838cb65bcd60261ae46cda16718c5c110f45e0e93",
    ("cassandra-phase0-core0", 5000, 1):
        "cea81e34c27cc4832a88a0ab39cb77d14d0bdab9a8dc008223cb02d3a30959d9",
    ("cloud9-phase0-core0", 5000, 1):
        "1b5edba533be657dd55bd73bad490fa54c3e9ac01a7dfe7ea439f03b51e33c1e",
    ("nutch-phase0-core0", 5000, 1):
        "4d73816dc41d4470857d3a7b1a53a3e886ccd67cdb80cd59b7391f6e292f010f",
    ("cc-5", 5000, 2):
        "f38795c0d2559a6286a5810e096027fa53ab7941984eb203569827e74ab5c648",
    ("bfs-10", 5000, 2):
        "c291ff736b449b2e26e85d4fe33d03108a4c11b737d5cc7aad1d5f0b03c442bd",
    ("471-omnetpp-s1", 5000, 2):
        "3dbae20193af748cfdaa6fbf6acd27d469b1ebd3803c0607bcd215d68362d3f4",
    ("473-astar-s1", 5000, 2):
        "12c2efa12d2adaa5b189db107615f28b1bfbb97cbd83ed64c0c2ab97bd9193ce",
    ("450-soplex-s0", 5000, 2):
        "b9b2bb80949cab6d9c4a09a859a29b06e5323d811cd51a58e023c469f9a9b74f",
    ("482-sphinx-s0", 5000, 2):
        "f43752e396a38e72cf8a73bcb8410f982ed6aaa1f83883c2cec9e176b35f632c",
    ("605-mcf-s1", 5000, 2):
        "e6f89a9bf88b9d135f2a87f6382679890b606279ee901dfed271f69148d66aec",
    ("623-xalan-s1", 5000, 2):
        "624b5c842d55afff60f2dddef77fd4b77821a64a6e5c41aefbc917ae4e3da548",
    ("cassandra-phase0-core0", 5000, 2):
        "0d42261b4515cb8e38ef084b38dec3f9ec5218768d67016de9eb3b0a67aee916",
    ("cloud9-phase0-core0", 5000, 2):
        "de0159bc7bba7ce0a7f738f6dd30d4a068c364e2eb94fb1c0619e42fbb0d38d3",
    ("nutch-phase0-core0", 5000, 2):
        "ed157438c511a51aa4441170ec6a977ef51ec5c56b1cee12a121c2c39bd1f8c3",
    ("cc-5", 5000, 3):
        "bfc20c102d9365088198ad63fdf55b0f908c4aaf698a976ee4d4f52781f91934",
    ("bfs-10", 5000, 3):
        "06441cf90042ac628be3d0e1b7f984d7f8628805022521e875a7aa38ae0edeef",
    ("471-omnetpp-s1", 5000, 3):
        "cab89f6706318cf778f2a92e885fac656d91a48e775bc364141bea1ae7a4ad1b",
    ("473-astar-s1", 5000, 3):
        "975bbaa44ad62311fd9d00c307299ff7236a91c8808bfec06cb95e3de88cee16",
    ("450-soplex-s0", 5000, 3):
        "504084cc63960dcd4bcf4741e7429c6b51e61f96b275786873eb9f3a5ea6ace4",
    ("482-sphinx-s0", 5000, 3):
        "6bf501b236afbc601c7dee08bfb0412691853d0958bc3e287568a61da968a3a7",
    ("605-mcf-s1", 5000, 3):
        "605348c2f05bfc7cfc009e214a9e1bfcb94595a5463db2ddbd5199c0ceb934e3",
    ("623-xalan-s1", 5000, 3):
        "a995f36d9e0e6bf43571abfc3dc51e628305313b6e06a4684e76c29e6e8561b2",
    ("cassandra-phase0-core0", 5000, 3):
        "c87da07fd2b269b6be6ffb6d3ef60fd42901e7fa9eb1c8b3ff12632aca728d59",
    ("cloud9-phase0-core0", 5000, 3):
        "29ca219c6bb6b643f83a9b459d036f3727a5c66b15fc0bb121c6bef5f3ee1c92",
    ("nutch-phase0-core0", 5000, 3):
        "4d6fe5796720148b233f0c604c1cced75f2f5c05bc829d84b3f59db04de2f419",
    ("cc-5", 16000, 1):
        "000b0d87f773cbb4bcf336eb85ccb8eb3bba19c05115449c3e3ab8979cd1492f",
    ("bfs-10", 16000, 1):
        "bc48ab5299250e73ae0ee77dc1324463da3ff5613b1964f17951bafec25923a0",
    ("471-omnetpp-s1", 16000, 1):
        "a11c000ebfa93f508890b3b49975d6285a37d9ca885569c94538ca72cec772ca",
    ("473-astar-s1", 16000, 1):
        "247d1dd81a39e2222d20b93330de151f5888c27c4db9b5c55e5d8cf31b2593ab",
    ("450-soplex-s0", 16000, 1):
        "cfb6de7fb3db123d904493c00e868d37481923387455432317b04f590088caaa",
    ("482-sphinx-s0", 16000, 1):
        "34db071b4b172f8d206b406320be7093a3bd2e979d0b3c0d52900f92ea75c1d6",
    ("605-mcf-s1", 16000, 1):
        "97afe48278c4c36cc552fce1d88b10bc5601ef9cccc23c1d03b3ca466a5e9cc3",
    ("623-xalan-s1", 16000, 1):
        "e72b431d76b65eba574ba6cdbe9f9596fef2b6d25b6193b990e307efa181559c",
    ("cassandra-phase0-core0", 16000, 1):
        "cdb25fa384d4fb3bf8e7b48b5371e244ffe62f65bc429baea24b0950648bb1c1",
    ("cloud9-phase0-core0", 16000, 1):
        "c1111a9129c4c937cc0bb52bc91d36bf3979756f98df0d5ea297791d9030a15c",
    ("nutch-phase0-core0", 16000, 1):
        "410a86e2162a4cb998e90243dc1cd1d1876cc125dec9e646b20ae428edaac236",
    ("cc-5", 16000, 2):
        "c04c169ef67d1ad0d5c0e5181c5ec73a257c1a27aef268ef3814715322b36a01",
    ("bfs-10", 16000, 2):
        "6cdc24db4edbbe31637fcf5caa2e78deff57918c8009e0cefedf3086a0a8e2aa",
    ("471-omnetpp-s1", 16000, 2):
        "61ce7e879e7747a83019e86c1d980aaacd98993ef1d7c0012892b19416682d70",
    ("473-astar-s1", 16000, 2):
        "5efe3d14096de393c6d2567f97f60ce728b7b35eccef7565725a317613b6c3ec",
    ("450-soplex-s0", 16000, 2):
        "374619b45d2195640d027eda707b368a912a11a241547430bf92bb7b1cb25e0a",
    ("482-sphinx-s0", 16000, 2):
        "a9421b491e1880a8a94e814fe07eea0f3df97d8905eb1b3cd449b68a8dd0516f",
    ("605-mcf-s1", 16000, 2):
        "56c56432a861967d390e82aa442e63f15bde91f7a6ebd9c127506583fa26a14d",
    ("623-xalan-s1", 16000, 2):
        "85aae8cdebf3ebef387137ea7b5399248737340e2acafc268bd2234178b7a3b0",
    ("cassandra-phase0-core0", 16000, 2):
        "0a29632710983a5d3f81420d43e7c4e4d2c9805c480ba0b4fc0c8964b2c7a8d1",
    ("cloud9-phase0-core0", 16000, 2):
        "6220fcf3ea3b747a1f558c588be6d214df6b25c72eff69a7d7211b945637607e",
    ("nutch-phase0-core0", 16000, 2):
        "8606c9981d6b035652efe3de4ecef5837dbeef9afa0de8f81ce9a76cd806b303",
    ("cc-5", 16000, 3):
        "087600a4c3948a3bfef7e2edd432804b073ee40a0513f479b67dcf19ce1ada5a",
    ("bfs-10", 16000, 3):
        "9c3511a3ab3105b882cffe593e46e4ffa211534be5a339f56947c06693f3d7bb",
    ("471-omnetpp-s1", 16000, 3):
        "f2a14a772c518ae91d3e0948822140d1080815f4b3c359b42036c39fea104a9a",
    ("473-astar-s1", 16000, 3):
        "4846b304f7eeb0e893432b8f9ac76cc163d6b97856a02b351a8ed5092bae6c59",
    ("450-soplex-s0", 16000, 3):
        "ed92aa67ea76a7a3c924382fc0f55ea5b55b6af557b28ddace77bd57c1bd83fa",
    ("482-sphinx-s0", 16000, 3):
        "5cb6d22bee0d97acfbeb9a2892c0b5c89e3a09391419a9dfe84714bded11ca4c",
    ("605-mcf-s1", 16000, 3):
        "25ed1b3e95c608550861d27547ea78398f3af1965204efab4d22b3ce743d9b4c",
    ("623-xalan-s1", 16000, 3):
        "dfae8def47ac4722ed4ea9da9c93a67bfac3e82b4ccd6c1bcc12efa1291c5dbb",
    ("cassandra-phase0-core0", 16000, 3):
        "2e27bbd2181a6911b63c67d850493b31618d3e0981c1bd6b75bf06497cc90033",
    ("cloud9-phase0-core0", 16000, 3):
        "c55d744d238f2889de2b5d6b0b3251fdba18816c490d55b67e8291f2b56e5a53",
    ("nutch-phase0-core0", 16000, 3):
        "7bf30ed7fa9a3d54351a31daf354c8b13b89d114e4011225b0a032d65fc23ebe",
}


def column_digest(trace):
    digest = hashlib.sha256()
    for column in (trace.instr_ids, trace.pcs, trace.addresses):
        digest.update(np.ascontiguousarray(column, dtype="<i8").tobytes())
    return digest.hexdigest()


def test_digests_cover_every_workload():
    assert {key[0] for key in COLUMN_DIGESTS} == set(WORKLOAD_NAMES)
    assert len(COLUMN_DIGESTS) == len(WORKLOAD_NAMES) * 2 * 3


@pytest.mark.parametrize("loads,seed", [(n, s) for n in (5000, 16000)
                                        for s in (1, 2, 3)])
def test_make_trace_columns_pinned(loads, seed):
    for name in WORKLOAD_NAMES:
        trace = make_trace(name, loads, seed=seed)
        assert len(trace) == loads
        assert trace.instruction_count == int(trace.instr_ids[-1]) + 1
        assert column_digest(trace) == COLUMN_DIGESTS[(name, loads, seed)], (
            name, loads, seed)


def test_trace_holds_its_columns_and_nothing_more():
    # A trace is its int64 columns: building one retains little beyond
    # the arrays it holds, and pickling it (what a worker process is
    # sent) carries only those arrays.
    make_trace("cc-5", 1000, seed=1)  # warm imports and module caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = make_trace("cc-5", 50_000, seed=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    held = sum(column.nbytes for column in (
        trace.instr_ids, trace.pcs, trace.addresses, trace.blocks))
    assert retained <= 1.25 * held, (retained, held)
    pickled = len(pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL))
    assert pickled <= 1.1 * held + 4096, (pickled, held)
